// Differential tests for the throughput-mode multi-query engine
// (algo/multi_query.hpp): a batch of K overlay searches must be
// byte-identical — every lane's distances, parents and work accounting — to
// a loop of warm per-query engines over the same query stream, for every
// queue policy and K in {1, 4, 32}, and so must the cross-lane down-sweep.
// Plus the workspace guarantee: a warm overlay_run_batch() of the same
// batch shape performs zero heap allocations (global operator new/delete
// counters, tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "algo/contraction.hpp"
#include "algo/multi_query.hpp"
#include "algo/overlay_query.hpp"
#include "algo/session.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

using test::alloc_count;

constexpr std::size_t kBatchSizes[] = {1, 4, 32};

void expect_stats_eq(const QueryStats& a, const QueryStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.settled, b.settled) << what;
  EXPECT_EQ(a.pushed, b.pushed) << what;
  EXPECT_EQ(a.decreased, b.decreased) << what;
  EXPECT_EQ(a.stale_popped, b.stale_popped) << what;
  EXPECT_EQ(a.relaxed, b.relaxed) << what;
}

/// K queries mixing one-to-all (even lanes) and targeted early-stop runs
/// (odd lanes), departures spread over the whole period.
std::vector<BatchQuery> make_queries(const Timetable& tt, Rng& rng,
                                     std::size_t k) {
  std::vector<BatchQuery> qs(k);
  for (std::size_t i = 0; i < k; ++i) {
    qs[i].source = static_cast<StationId>(rng.next_below(tt.num_stations()));
    qs[i].departure = static_cast<Time>(rng.next_below(kDayseconds));
    qs[i].target = i % 2 == 1 ? static_cast<StationId>(
                                    rng.next_below(tt.num_stations()))
                              : kInvalidStation;
  }
  return qs;
}

// ---------------------------------------------------------- overlay ---

TEST(MultiQuery, OverlayMatchesPerQueryEveryPolicyAndBatchSize) {
  Timetable tt = test::small_city(42);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(72);
  for (QueueKind qk : kAllQueueKinds) {
    with_queue(qk, [&](auto set) {
      using Queue = typename decltype(set)::Time;
      MultiQueryOverlayTimeEngineT<Queue> multi(tt, g, ov);
      OverlayTimeQueryT<Queue> per(tt, g, ov);
      for (std::size_t k : kBatchSizes) {
        const std::vector<BatchQuery> qs = make_queries(tt, rng, k);
        multi.run(qs);
        for (std::size_t q = 0; q < k; ++q) {
          per.run(qs[q].source, qs[q].departure, qs[q].target);
          // Full (no-target) lanes also replay the per-lane down-sweep,
          // extending the comparison to every contracted node.
          const bool full = qs[q].target == kInvalidStation;
          if (full) {
            per.settle_contracted();
            multi.settle_contracted(q);
          }
          const std::string what = std::string("overlay ") +
                                   queue_kind_name(qk) + " K=" +
                                   std::to_string(k) + " lane " +
                                   std::to_string(q);
          expect_stats_eq(per.stats(), multi.stats(q), what);
          for (NodeId v = 0; v < ov.num_nodes(); ++v) {
            ASSERT_EQ(multi.arrival_at_node(q, v), per.arrival_at_node(v))
                << what << " node " << v;
            ASSERT_EQ(multi.parent(q, v), per.parent(v))
                << what << " node " << v;
          }
        }
      }
    });
  }
}

// The cross-lane batched down-sweep (settle_contracted_batch) must agree
// with a loop of per-query settle_contracted runs at every node — labels
// served from the transposed sweep surface, parents with the lane
// fall-through, and the relax accounting — for every queue policy and
// batch size. Sweeping needs full lanes, so every query is one-to-all.
TEST(MultiQuery, SettleContractedBatchMatchesPerQuery) {
  Timetable tt = test::small_city(46);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(75);
  for (QueueKind qk : kAllQueueKinds) {
    with_queue(qk, [&](auto set) {
      using Queue = typename decltype(set)::Time;
      MultiQueryOverlayTimeEngineT<Queue> multi(tt, g, ov);
      OverlayTimeQueryT<Queue> per(tt, g, ov);
      for (std::size_t k : kBatchSizes) {
        std::vector<BatchQuery> qs = make_queries(tt, rng, k);
        for (BatchQuery& q : qs) q.target = kInvalidStation;
        multi.run(qs);
        multi.settle_contracted_batch();
        for (std::size_t q = 0; q < k; ++q) {
          per.run(qs[q].source, qs[q].departure);
          per.settle_contracted();
          const std::string what = std::string("sweep ") +
                                   queue_kind_name(qk) + " K=" +
                                   std::to_string(k) + " lane " +
                                   std::to_string(q);
          expect_stats_eq(per.stats(), multi.stats(q), what);
          for (NodeId v = 0; v < ov.num_nodes(); ++v) {
            ASSERT_EQ(multi.arrival_at_node(q, v), per.arrival_at_node(v))
                << what << " node " << v;
            ASSERT_EQ(multi.parent(q, v), per.parent(v))
                << what << " node " << v;
          }
          // The station-level accessor must serve from the swept surface
          // too, not the stale lane labels.
          for (StationId s = 0; s < tt.num_stations(); ++s) {
            ASSERT_EQ(multi.arrival_at(q, s), per.arrival_at(s))
                << what << " station " << s;
          }
        }
      }
    });
  }
}

// A second sweep before the next run changes nothing: not the labels, not
// the parents, not the relax accounting. Per-lane settle_contracted after
// the batched sweep is a no-op too.
TEST(MultiQuery, SettleContractedBatchIsIdempotent) {
  Timetable tt = test::small_city(47);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(77);
  std::vector<BatchQuery> qs = make_queries(tt, rng, 4);
  for (BatchQuery& q : qs) q.target = kInvalidStation;
  MultiQueryOverlayTimeEngine multi(tt, g, ov);
  multi.run(qs);
  multi.settle_contracted_batch();
  std::vector<QueryStats> stats;
  std::vector<Time> arrivals;
  std::vector<NodeId> parents;
  for (std::size_t q = 0; q < qs.size(); ++q) {
    stats.push_back(multi.stats(q));
    for (NodeId v = 0; v < ov.num_nodes(); ++v) {
      arrivals.push_back(multi.arrival_at_node(q, v));
      parents.push_back(multi.parent(q, v));
    }
  }
  const std::uint64_t gathers = multi.batch_stats().gathers;
  multi.settle_contracted_batch();
  for (std::size_t q = 0; q < qs.size(); ++q) multi.settle_contracted(q);
  EXPECT_EQ(multi.batch_stats().gathers, gathers);
  std::size_t i = 0;
  for (std::size_t q = 0; q < qs.size(); ++q) {
    expect_stats_eq(stats[q], multi.stats(q), "lane " + std::to_string(q));
    for (NodeId v = 0; v < ov.num_nodes(); ++v, ++i) {
      ASSERT_EQ(multi.arrival_at_node(q, v), arrivals[i]) << "node " << v;
      ASSERT_EQ(multi.parent(q, v), parents[i]) << "node " << v;
    }
  }
}

// Binding an overlay contracted from a different dataset must fail loudly,
// like the per-query engine.
TEST(MultiQuery, OverlayGraphMismatchThrows) {
  Timetable city = test::small_city(43);
  TdGraph g_city = TdGraph::build(city);
  Timetable tiny = test::tiny_line();
  TdGraph g_tiny = TdGraph::build(tiny);
  const OverlayGraph ov_tiny = contract_graph(tiny, g_tiny, {});
  EXPECT_THROW((MultiQueryOverlayTimeEngine{city, g_city, ov_tiny}),
               std::runtime_error);
}

// ------------------------------------------------- session + workspace ---

// Zero-allocation guarantee: after warm-up, overlay_run_batch and the
// batched down-sweep of the same batch shape allocate nothing — all lane
// state lives in the session workspace.
TEST(MultiQuery, WarmRunBatchDoesNotAllocate) {
  Timetable tt = test::small_city(45);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(74);
  const std::vector<BatchQuery> qs = make_queries(tt, rng, 8);

  // The batched down-sweep needs full lanes; it rides along to pin its
  // transpose/row buffers (and the lazy down-index) to the workspace too.
  std::vector<BatchQuery> qs_full = qs;
  for (BatchQuery& q : qs_full) q.target = kInvalidStation;

  QuerySession session(tt, g);
  session.multi_overlay_engine(ov);
  std::uint64_t sink = 0;
  const auto exercise = [&] {
    sink += session.overlay_run_batch(qs).stats(0).settled;
    auto& eng = session.overlay_run_batch(qs_full);
    eng.settle_contracted_batch();
    sink += eng.arrival_at_node(0, 0);
  };
  exercise();  // engine construction + capacity growth
  exercise();  // second pass: every buffer at steady-state capacity
  const std::uint64_t before = alloc_count();
  exercise();
  EXPECT_EQ(alloc_count() - before, 0u) << "warm batch queries allocated";
  EXPECT_NE(sink, 0u);
}

}  // namespace
}  // namespace pconn
