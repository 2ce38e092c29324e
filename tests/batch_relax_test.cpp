// Differential tests for the batched gather -> eval -> commit relaxation
// (algo/relax_batch.hpp): for EVERY engine that has two relax bodies and
// EVERY applicable queue policy, the batch modes must produce
// byte-identical results AND byte-identical work accounting (settled,
// pushed, decreased, stale pops, relaxed, pruning counters) to the
// interleaved loop. The overlay engines' own differentials live in
// contraction_test and overlay_spcs_test.
//
// kBatch runs at two thresholds: the compiled kBatchRelaxMinEdges (the
// shipped adaptive mode, phased only where the TTF fan-out clears it) and
// batch_min_edges = 0 (the phased body on every settle — in the Pyrga
// graph model route nodes carry a single travel function, so without
// forcing, the flat SPCS batch body would go untested).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/lc_profile.hpp"
#include "algo/overlay_query.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/session.hpp"
#include "s2s/distance_table.hpp"
#include "s2s/s2s_query.hpp"
#include "s2s/transfer_selection.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

constexpr RelaxOptions kBatchConfigs[] = {
    {.mode = RelaxMode::kBatch, .batch_min_edges = kBatchRelaxMinEdges},
    {.mode = RelaxMode::kBatch, .batch_min_edges = 0}};

/// Same policy on both sides, so EVERY counter must agree — including the
/// queue-shape ones the cross-policy tests exempt.
void expect_stats_eq(const QueryStats& a, const QueryStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.settled, b.settled) << what;
  EXPECT_EQ(a.pushed, b.pushed) << what;
  EXPECT_EQ(a.decreased, b.decreased) << what;
  EXPECT_EQ(a.stale_popped, b.stale_popped) << what;
  EXPECT_EQ(a.relaxed, b.relaxed) << what;
  EXPECT_EQ(a.self_pruned, b.self_pruned) << what;
  EXPECT_EQ(a.relax_pruned, b.relax_pruned) << what;
  EXPECT_EQ(a.stop_pruned, b.stop_pruned) << what;
  EXPECT_EQ(a.table_pruned, b.table_pruned) << what;
  EXPECT_EQ(a.label_points, b.label_points) << what;
}

std::string mode_tag(QueueKind q, const RelaxOptions& r) {
  return std::string(queue_kind_name(q)) + "/" + relax_mode_name(r.mode) +
         "@" + std::to_string(r.batch_min_edges);
}

// ------------------------------------------------------------- session ---

// QuerySessionOptions::relax must reach every engine the session builds
// that still has two relax bodies — results are mode-identical by design,
// so this checks the plumbing directly instead of the output.
TEST(BatchRelax, SessionAppliesRelaxOptionToEveryEngine) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  QuerySessionOptions opt;
  opt.relax = RelaxMode::kInterleaved;
  QuerySession session(tt, g, opt);
  EXPECT_EQ(session.lc_engine().relax_mode(), RelaxMode::kInterleaved);
  EXPECT_EQ(session.overlay_time_engine(ov).relax_mode(),
            RelaxMode::kInterleaved);
  EXPECT_EQ(session.overlay_lc_engine(ov).relax_mode(),
            RelaxMode::kInterleaved);
  EXPECT_EQ(session.profile_engine().options().relax, RelaxMode::kInterleaved);
  EXPECT_EQ(session.overlay_spcs_engine(ov).options().relax,
            RelaxMode::kInterleaved);
}

// ------------------------------------------------ batch_min_edges knob ---

// The threshold only picks which of the two equivalent loop bodies runs:
// any value — 0 (always phased), mid, huge (never phased) — must keep
// results AND accounting bit-identical to the default adaptive mode. On the
// overlay core, where shortcut fans straddle the compiled threshold.
TEST(BatchRelax, BatchMinEdgesKnobKeepsBothPathsBitIdentical) {
  Timetable tt = test::small_city(35);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  Rng rng(63);
  std::vector<std::pair<StationId, Time>> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(
        {static_cast<StationId>(rng.next_below(tt.num_stations())),
         static_cast<Time>(rng.next_below(kDayseconds))});
  }
  OverlayTimeQuery ref(tt, g, ov);
  ref.set_relax_options({.mode = RelaxMode::kBatch});
  for (std::uint32_t edges : {0u, 1u, 3u, 1u << 20}) {
    OverlayTimeQuery knob(tt, g, ov);
    knob.set_relax_options(
        {.mode = RelaxMode::kBatch, .batch_min_edges = edges});
    for (auto [s, dep] : queries) {
      ref.run(s, dep);
      knob.run(s, dep);
      const std::string what = "batch_min_edges=" + std::to_string(edges);
      expect_stats_eq(ref.stats(), knob.stats(), what);
      for (NodeId v = 0; v < ov.num_nodes(); ++v) {
        ASSERT_EQ(ref.arrival_at_node(v), knob.arrival_at_node(v))
            << what << " node " << v;
        ASSERT_EQ(ref.parent(v), knob.parent(v)) << what << " node " << v;
        ASSERT_EQ(ref.parent_edge(v), knob.parent_edge(v))
            << what << " node " << v;
      }
    }
  }
}

// The session option must reach every engine family that carries the
// threshold.
TEST(BatchRelax, SessionAppliesBatchMinEdgesKnob) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  QuerySessionOptions opt;
  opt.batch_min_edges = 3;
  QuerySession session(tt, g, opt);
  EXPECT_EQ(session.overlay_time_engine(ov).relax_options().batch_min_edges,
            3u);
  EXPECT_EQ(session.multi_overlay_engine(ov).relax_options().batch_min_edges,
            3u);
  EXPECT_EQ(session.profile_engine().options().batch_min_edges, 3u);
  EXPECT_EQ(session.overlay_spcs_engine(ov).options().batch_min_edges, 3u);
}

// --------------------------------------------------------------- SPCS ---

TEST(BatchRelax, SpcsOneToAllEveryPolicy) {
  Rng rng(61);
  for (int net = 0; net < 3; ++net) {
    Timetable tt = net == 0 ? test::small_city(31)
                            : test::random_timetable(rng, 14, 8, 6);
    TdGraph g = TdGraph::build(tt);
    for (QueueKind qk : kAllQueueKinds) {
      with_queue(qk, [&](auto qs) {
        using Queue = typename decltype(qs)::Spcs;
        for (const RelaxOptions& r : kBatchConfigs) {
          ParallelSpcsOptions oi, ob;
          oi.relax = RelaxMode::kInterleaved;
          ob.relax = r.mode;
          ob.batch_min_edges = r.batch_min_edges;
          // prune_on_relax in one of the configurations: its pre-test runs
          // in the gather phase.
          oi.prune_on_relax = ob.prune_on_relax = (net == 1);
          ParallelSpcsT<Queue> inter(tt, g, oi), batch(tt, g, ob);
          for (StationId s = 0; s < tt.num_stations(); s += 3) {
            OneToAllResult ri = inter.one_to_all(s);
            OneToAllResult rb = batch.one_to_all(s);
            const std::string what =
                "spcs " + mode_tag(qk, r) + " src " + std::to_string(s);
            expect_stats_eq(ri.stats, rb.stats, what);
            ASSERT_EQ(ri.profiles.size(), rb.profiles.size());
            for (StationId v = 0; v < ri.profiles.size(); ++v) {
              EXPECT_EQ(ri.profiles[v], rb.profiles[v]) << what << " @" << v;
            }
          }
        }
      });
    }
  }
}

TEST(BatchRelax, SpcsStationToStationStoppingCriterion) {
  Timetable tt = test::small_city(32);
  TdGraph g = TdGraph::build(tt);
  Rng rng(77);
  for (QueueKind qk : kAllQueueKinds) {
    with_queue(qk, [&](auto qs) {
      using Queue = typename decltype(qs)::Spcs;
      for (const RelaxOptions& r : kBatchConfigs) {
        ParallelSpcsOptions oi, ob;
        oi.relax = RelaxMode::kInterleaved;
        ob.relax = r.mode;
        ob.batch_min_edges = r.batch_min_edges;
        oi.threads = ob.threads = 2;
        ParallelSpcsT<Queue> inter(tt, g, oi), batch(tt, g, ob);
        for (int i = 0; i < 6; ++i) {
          StationId s =
              static_cast<StationId>(rng.next_below(tt.num_stations()));
          StationId t =
              static_cast<StationId>(rng.next_below(tt.num_stations()));
          StationQueryResult ri = inter.station_to_station(s, t);
          StationQueryResult rb = batch.station_to_station(s, t);
          const std::string what = "s2s-stop " + mode_tag(qk, r);
          expect_stats_eq(ri.stats, rb.stats, what);
          EXPECT_EQ(ri.profile, rb.profile) << what;
        }
      }
    });
  }
}

// s2s with distance-table + target pruning: the ancestor/gamma accounting
// runs inside the commit phase, so it must transition identically.
TEST(BatchRelax, S2sTablePruningEveryPolicy) {
  Timetable tt = test::small_railway(33);
  TdGraph g = TdGraph::build(tt);
  StationGraph sg = StationGraph::build(tt);
  auto transfer = select_transfer_fraction(sg, tt, 0.25);
  ParallelSpcsOptions po;
  DistanceTable dt = DistanceTable::build(tt, g, transfer, po);
  Rng rng(88);
  std::vector<std::pair<StationId, StationId>> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(
        {static_cast<StationId>(rng.next_below(tt.num_stations())),
         static_cast<StationId>(rng.next_below(tt.num_stations()))});
  }
  for (QueueKind qk : kAllQueueKinds) {
    with_queue(qk, [&](auto qs) {
      using Queue = typename decltype(qs)::Spcs;
      for (const RelaxOptions& r : kBatchConfigs) {
        S2sOptions oi, ob;
        oi.relax = RelaxMode::kInterleaved;
        ob.relax = r.mode;
        ob.batch_min_edges = r.batch_min_edges;
        S2sQueryEngineT<Queue> inter(tt, g, sg, &dt, oi);
        S2sQueryEngineT<Queue> batch(tt, g, sg, &dt, ob);
        for (auto [s, t] : queries) {
          StationQueryResult ri = inter.query(s, t);
          StationQueryResult rb = batch.query(s, t);
          const std::string what = "s2s-table " + mode_tag(qk, r) + " " +
                                   std::to_string(s) + "->" +
                                   std::to_string(t);
          expect_stats_eq(ri.stats, rb.stats, what);
          EXPECT_EQ(ri.profile, rb.profile) << what;
        }
      }
    });
  }
}

// ----------------------------------------------------------------- LC ---

// LC runs the binary heap only (label-correcting keys are not monotone)
// and has no fan-out threshold: its batch dimension is the label profile.
TEST(BatchRelax, LcBinaryHeap) {
  for (int net = 0; net < 2; ++net) {
    Timetable tt =
        net == 0 ? test::small_city(37) : test::small_railway(38);
    TdGraph g = TdGraph::build(tt);
    LcProfileQuery inter(tt, g), batch(tt, g);
    inter.set_relax_mode(RelaxMode::kInterleaved);
    batch.set_relax_mode(RelaxMode::kBatch);
    for (StationId s = 0; s < tt.num_stations(); s += 4) {
      inter.run(s);
      batch.run(s);
      const std::string what = "lc src " + std::to_string(s);
      expect_stats_eq(inter.stats(), batch.stats(), what);
      for (StationId v = 0; v < tt.num_stations(); ++v) {
        EXPECT_EQ(inter.profile(v), batch.profile(v)) << what << " @" << v;
      }
    }
  }
}

}  // namespace
}  // namespace pconn
