// Differential tests for the PR-3 memory-layout pass: the pooled-TTF /
// SoA-edge graph must be observationally identical to the seed AoS layout.
//
//  * Every decoded edge view agrees with the raw SoA words, and the pooled
//    bucket-indexed evaluation agrees with a freshly built per-edge Ttf
//    (the seed representation, binary-search eval) at a dense time grid.
//  * All engines (SPCS one-to-all, TimeQuery, LC, MC) produce profiles /
//    arrivals equal to brute-force references on randomized networks —
//    i.e. the relax-loop restructure (settled/pruning tests before TTF
//    evaluation, prefetch lookahead) changed no observable result.
//  * StationGraph's decoded views and SoA spans describe the same graph.
#include <gtest/gtest.h>

#include <vector>

#include "algo/lc_profile.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/time_query.hpp"
#include "graph/station_graph.hpp"
#include "graph/td_graph.hpp"
#include "graph/ttf.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

TEST(Layout, EdgeViewsMatchSoAWords) {
  Timetable tt = test::small_city(31);
  TdGraph g = TdGraph::build(tt);
  std::size_t seen = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::uint32_t ei = g.edge_begin(v);
    for (const TdGraph::Edge& e : g.out_edges(v)) {
      ASSERT_LT(ei, g.edge_end(v));
      EXPECT_EQ(e.head, g.edge_head(ei));
      const std::uint32_t w = g.edge_word(ei);
      if (TdGraph::word_is_const(w)) {
        EXPECT_EQ(e.ttf, kNoTtf);
        EXPECT_EQ(e.weight, TdGraph::word_weight(w));
      } else {
        EXPECT_EQ(e.ttf, TdGraph::word_ttf(w));
        EXPECT_EQ(e.weight, 0u);
      }
      // The two arrival entry points agree at a grid of entry times.
      for (Time t : {0u, 8u * 3600u, 86399u, 90000u}) {
        EXPECT_EQ(g.arrival_via(e, t), g.arrival_by_word(w, t));
      }
      ++ei;
      ++seen;
    }
    EXPECT_EQ(ei, g.edge_end(v));
  }
  EXPECT_EQ(seen, g.num_edges());
}

// Pooled eval vs the seed representation rebuilt per edge: one Ttf object
// with its own vector and binary-search eval.
TEST(Layout, PooledEvalMatchesPerEdgeBinarySearch) {
  Timetable tt = test::small_railway(32);
  TdGraph g = TdGraph::build(tt);
  const TtfPool& pool = g.ttfs();
  std::size_t ttf_edges = 0;
  for (std::uint32_t f = 0; f < pool.size(); ++f) {
    auto pts = pool.points(f);
    Ttf seed = Ttf::build({pts.begin(), pts.end()}, g.period());
    ASSERT_EQ(seed.size(), pts.size());
    for (Time t = 0; t < g.period(); t += 311) {
      ASSERT_EQ(pool.eval(f, t), seed.eval(t)) << "ttf " << f << " t " << t;
      ASSERT_EQ(pool.point_used(f, t), seed.point_used(t))
          << "ttf " << f << " t " << t;
    }
    ++ttf_edges;
  }
  EXPECT_GT(ttf_edges, 0u);
}

// TimeQuery on the SoA layout vs the exhaustive Bellman-Ford oracle.
TEST(Layout, TimeQueryMatchesBruteForce) {
  Rng rng(71);
  for (int net = 0; net < 3; ++net) {
    Timetable tt = test::random_timetable(rng, 10 + net * 4, 8, 3);
    TdGraph g = TdGraph::build(tt);
    TimeQuery q(tt, g);
    for (int i = 0; i < 6; ++i) {
      StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
      Time tau = static_cast<Time>(rng.next_below(tt.period()));
      std::vector<Time> oracle = test::brute_force_arrivals(g, s, tau);
      q.run(s, tau);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(q.arrival_at_node(v), oracle[v])
            << "net " << net << " src " << s << " node " << v;
      }
    }
  }
}

// SPCS one-to-all on the SoA layout agrees with the LC baseline (an
// entirely different algorithm over the same layout).
TEST(Layout, ProfileEnginesAgreeAcrossAlgorithms) {
  Rng rng(72);
  Timetable tt = test::random_timetable(rng, 14, 10, 4);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions opt;
  opt.threads = 2;
  ParallelSpcs spcs(tt, g, opt);
  LcProfileQuery lc(tt, g);
  for (int i = 0; i < 5; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    OneToAllResult rb = spcs.one_to_all(s);
    lc.run(s);
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      test::expect_same_function(rb.profiles[v], lc.profile(v), tt.period(),
                                 "spcs vs lc, dst " + std::to_string(v));
    }
  }
}

TEST(Layout, StationGraphViewsConsistent) {
  Timetable tt = test::small_railway(33);
  StationGraph sg = StationGraph::build(tt);
  for (StationId s = 0; s < sg.num_stations(); ++s) {
    auto heads = sg.out_heads(s);
    std::size_t i = 0;
    std::uint32_t e = sg.out_begin(s);
    for (const StationGraph::Edge& edge : sg.out_edges(s)) {
      ASSERT_LT(i, heads.size());
      EXPECT_EQ(edge.head, heads[i]);
      EXPECT_EQ(edge.min_ride, sg.out_min_ride(e));
      EXPECT_EQ(edge.num_conns, sg.out_num_conns(e));
      ++i;
      ++e;
    }
    EXPECT_EQ(i, heads.size());
    EXPECT_EQ(e, sg.out_end(s));
    // Reverse views mirror forward edges.
    for (StationId u : sg.in_heads(s)) {
      bool found = false;
      for (StationId w : sg.out_heads(u)) found |= (w == s);
      EXPECT_TRUE(found) << "rev edge " << u << " -> " << s;
    }
  }
}

}  // namespace
}  // namespace pconn
