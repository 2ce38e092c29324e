// Overlay-routed parallel SPCS correctness (algo/overlay_spcs.hpp):
//  * differential overlay-vs-flat byte-identity of the reduced profile
//    fronts at EVERY station across {1, 2, 8} threads x 2 queue policies,
//    and at EVERY flat node after the batched down-sweep;
//  * accounting discipline: settled/pruned/relaxed identical across queue
//    policies, sweep idempotency;
//  * thread-count determinism of the overlay profiles;
//  * station-to-station with the stopping criterion;
//  * chunk boundaries: the served kSpcsChunk-wide station-to-station query
//    equals the unchunked one_to_all on sources with |conn(S)| at and
//    around the chunk width, and on every preset's busiest station.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/overlay_spcs.hpp"
#include "algo/parallel_spcs.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

ParallelSpcsOptions spcs_opts(unsigned threads) {
  ParallelSpcsOptions o;
  o.threads = threads;
  return o;
}

/// A few deterministic sources spread over the station range.
std::vector<StationId> pick_sources(const Timetable& tt, std::uint64_t seed,
                                    int count) {
  Rng rng(seed);
  std::vector<StationId> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  return out;
}

// ------------------------------------------------------------ differential ---

/// Station profiles byte-identical to the flat driver for one
/// (threads, queue) configuration.
template <typename Queue>
void expect_station_identity(const Timetable& tt, const TdGraph& g,
                             const OverlayGraph& ov, unsigned threads,
                             std::uint64_t seed) {
  ParallelSpcsT<Queue> flat(tt, g, spcs_opts(threads));
  OverlayParallelSpcsT<Queue> over(tt, g, ov, spcs_opts(threads));
  for (const StationId s : pick_sources(tt, seed, 2)) {
    const OneToAllResult rf = flat.one_to_all(s);
    const OneToAllResult ro = over.one_to_all(s);
    ASSERT_EQ(ro.profiles.size(), rf.profiles.size());
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      ASSERT_EQ(ro.profiles[v], rf.profiles[v])
          << "station " << v << " source " << s << " threads " << threads;
    }
  }
}

TEST(OverlaySpcs, StationIdentityAcrossThreadsAndPolicies) {
  const Timetable tt = test::small_city(41);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  std::uint64_t seed = 9000;
  for (const unsigned threads : {1u, 2u, 8u}) {
    expect_station_identity<SpcsBinaryQueue>(tt, g, ov, threads, seed++);
    expect_station_identity<SpcsBucketQueue>(tt, g, ov, threads, seed++);
  }
}

TEST(OverlaySpcs, StationIdentityOtherFixtures) {
  {
    const Timetable tt = test::tiny_line();
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    expect_station_identity<SpcsBinaryQueue>(tt, g, ov, 2, 10001);
  }
  {
    const Timetable tt = test::small_railway(42);
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    expect_station_identity<SpcsBinaryQueue>(tt, g, ov, 2, 10002);
    expect_station_identity<SpcsBucketQueue>(tt, g, ov, 8, 10003);
  }
  Rng rng(777);
  for (int iter = 0; iter < 3; ++iter) {
    const Timetable tt = test::random_timetable(rng, 12, 8, 4);
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    expect_station_identity<SpcsBinaryQueue>(tt, g, ov, 2, 11000 + iter);
  }
}

/// Node-level differential: after settle_contracted() the overlay engine's
/// reduced profile must equal the flat engine's at EVERY flat node —
/// core, contracted, stations and route nodes alike.
template <typename Queue>
void expect_node_identity(const Timetable& tt, const TdGraph& g,
                          const OverlayGraph& ov, unsigned threads,
                          StationId s) {
  ParallelSpcsT<Queue> flat(tt, g, spcs_opts(threads));
  OverlayParallelSpcsT<Queue> over(tt, g, ov, spcs_opts(threads));
  flat.one_to_all(s);
  over.one_to_all(s);
  over.settle_contracted();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(over.node_profile(s, v), flat.node_profile(s, v))
        << "node " << v << (ov.is_core(v) ? " (core)" : " (contracted)")
        << " source " << s << " threads " << threads;
  }
}

TEST(OverlaySpcs, NodeIdentityAfterSweep) {
  const Timetable tt = test::small_city(43);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  ASSERT_GT(ov.num_contracted(), 0u) << "fixture contracted nothing";
  const StationId s = 3 % tt.num_stations();
  for (const unsigned threads : {1u, 2u, 8u}) {
    expect_node_identity<SpcsBinaryQueue>(tt, g, ov, threads, s);
  }
  expect_node_identity<SpcsBucketQueue>(tt, g, ov, 2, s);
}

// ------------------------------------------------------------- accounting ---

void expect_same_work(const QueryStats& a, const QueryStats& b,
                      const char* what) {
  EXPECT_EQ(a.settled, b.settled) << what;
  EXPECT_EQ(a.pushed, b.pushed) << what;
  EXPECT_EQ(a.decreased, b.decreased) << what;
  EXPECT_EQ(a.stale_popped, b.stale_popped) << what;
  EXPECT_EQ(a.relaxed, b.relaxed) << what;
  EXPECT_EQ(a.self_pruned, b.self_pruned) << what;
  EXPECT_EQ(a.relax_pruned, b.relax_pruned) << what;
  EXPECT_EQ(a.stop_pruned, b.stop_pruned) << what;
}

TEST(OverlaySpcs, SettleAccountingIdenticalAcrossQueuePolicies) {
  // Policies may differ in pushed/decreased/stale_popped (that is their
  // point) but must settle the same items and relax the same edges.
  const Timetable tt = test::small_city(45);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  const StationId s = 2 % tt.num_stations();
  const auto run = [&](auto tag) {
    using Queue = decltype(tag);
    OverlayParallelSpcsT<Queue> over(tt, g, ov, spcs_opts(2));
    over.one_to_all(s);
    over.settle_contracted();
    return over.accumulated_stats();
  };
  const QueryStats bin = run(SpcsBinaryQueue{});
  const QueryStats st = run(SpcsBucketQueue{});
  // Same discipline as the flat cross-policy test
  // (tests/queue_policy_test.cpp): settled and self-pruned items are
  // policy-invariant; `relaxed` may jitter by equal-composite-key pop
  // order, and queue-shape counters differ by design.
  EXPECT_EQ(bin.settled, st.settled);
  EXPECT_EQ(bin.self_pruned, st.self_pruned);
}

TEST(OverlaySpcs, SweepIsIdempotent) {
  const Timetable tt = test::small_city(46);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  OverlayParallelSpcsT<SpcsBinaryQueue> over(tt, g, ov, spcs_opts(2));
  const StationId s = 0;
  over.one_to_all(s);
  over.settle_contracted();
  const QueryStats once = over.accumulated_stats();
  const Profile p = over.node_profile(s, g.num_nodes() - 1);
  over.settle_contracted();  // must be a no-op
  expect_same_work(once, over.accumulated_stats(), "re-sweep");
  EXPECT_EQ(p, over.node_profile(s, g.num_nodes() - 1));
}

// ------------------------------------------------------------ determinism ---

TEST(OverlaySpcs, ProfilesDeterministicAcrossThreadCounts) {
  const Timetable tt = test::small_city(47);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  const StationId s = 4 % tt.num_stations();
  OverlayParallelSpcsT<SpcsBinaryQueue> one(tt, g, ov, spcs_opts(1));
  OverlayParallelSpcsT<SpcsBinaryQueue> two(tt, g, ov, spcs_opts(2));
  OverlayParallelSpcsT<SpcsBinaryQueue> eight(tt, g, ov, spcs_opts(8));
  const OneToAllResult r1 = one.one_to_all(s);
  const OneToAllResult r2 = two.one_to_all(s);
  const OneToAllResult r8 = eight.one_to_all(s);
  for (StationId v = 0; v < tt.num_stations(); ++v) {
    ASSERT_EQ(r1.profiles[v], r2.profiles[v]) << "station " << v;
    ASSERT_EQ(r1.profiles[v], r8.profiles[v]) << "station " << v;
  }
  // And the node-level results after the sweep.
  one.settle_contracted();
  two.settle_contracted();
  eight.settle_contracted();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Profile p1 = one.node_profile(s, v);
    ASSERT_EQ(p1, two.node_profile(s, v)) << "node " << v;
    ASSERT_EQ(p1, eight.node_profile(s, v)) << "node " << v;
  }
}

// -------------------------------------------------------------------- s2s ---

TEST(OverlaySpcs, StationToStationMatchesFlat) {
  const Timetable tt = test::small_city(48);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ParallelSpcsT<SpcsBinaryQueue> flat(tt, g, spcs_opts(threads));
    OverlayParallelSpcsT<SpcsBinaryQueue> over(tt, g, ov, spcs_opts(threads));
    Rng rng(1200 + threads);
    for (int i = 0; i < 4; ++i) {
      const StationId s =
          static_cast<StationId>(rng.next_below(tt.num_stations()));
      const StationId t =
          static_cast<StationId>(rng.next_below(tt.num_stations()));
      const StationQueryResult rf = flat.station_to_station(s, t);
      const StationQueryResult ro = over.station_to_station(s, t);
      ASSERT_EQ(ro.profile, rf.profile)
          << s << " -> " << t << " threads " << threads;
    }
  }
}

// -------------------------------------------------------- chunk boundaries

/// Overlay half of the chunk-boundary identity (the flat half is in
/// tests/spcs_edge_test.cpp): the served overlay station-to-station query
/// runs conn(S) in kSpcsChunk-wide chunks, and must equal the unchunked
/// flat one_to_all at every target, for every thread count and queue
/// policy.
template <typename Queue>
void expect_chunked_equals_one_to_all(const Timetable& tt, const TdGraph& g,
                                      const OverlayGraph& ov, StationId s,
                                      std::span<const StationId> targets,
                                      const OneToAllResult& want) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    OverlayParallelSpcsT<Queue> over(tt, g, ov, spcs_opts(threads));
    for (const StationId t : targets) {
      ASSERT_EQ(over.station_to_station(s, t).profile, want.profiles[t])
          << s << " -> " << t << " |conn(S)| " << tt.outgoing(s).size()
          << " threads " << threads;
    }
  }
}

void expect_chunked_identity(const Timetable& tt, StationId s,
                             std::span<const StationId> targets) {
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  const OneToAllResult want = ParallelSpcs(tt, g, {}).one_to_all(s);
  expect_chunked_equals_one_to_all<SpcsBinaryQueue>(tt, g, ov, s, targets,
                                                    want);
  expect_chunked_equals_one_to_all<SpcsBucketQueue>(tt, g, ov, s, targets,
                                                    want);
}

TEST(OverlaySpcs, ChunkBoundariesOnRandomNetwork) {
  for (const std::uint64_t seed : {51u, 52u}) {
    const Timetable tt = test::chunk_boundary_network(seed);
    std::vector<StationId> all(tt.num_stations());
    for (StationId t = 0; t < all.size(); ++t) all[t] = t;
    for (StationId s = 0; s < std::size(test::kChunkBoundaryCounts); ++s) {
      ASSERT_EQ(tt.outgoing(s).size(), test::kChunkBoundaryCounts[s]);
      expect_chunked_identity(tt, s, all);
    }
  }
}

TEST(OverlaySpcs, ChunkedBusiestStationOnEveryPreset) {
  for (const gen::Preset p : gen::kAllPresets) {
    SCOPED_TRACE(gen::preset_name(p));
    const Timetable tt = gen::make_preset(p, 0.3);
    const StationId s = test::busiest_station(tt);
    ASSERT_GT(tt.outgoing(s).size(), 2 * kSpcsChunk);
    Rng rng(70 + static_cast<std::uint64_t>(p));
    std::vector<StationId> targets;
    for (int i = 0; i < 4; ++i) {
      targets.push_back(
          static_cast<StationId>(rng.next_below(tt.num_stations())));
    }
    expect_chunked_identity(tt, s, targets);
  }
}

}  // namespace
}  // namespace pconn
