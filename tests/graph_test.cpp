#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/generator.hpp"
#include "graph/station_graph.hpp"
#include "graph/td_graph.hpp"
#include "test_util.hpp"
#include "timetable/validation.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

TEST(TdGraph, NodeCounts) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  std::size_t route_nodes = 0;
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    route_nodes += tt.route(r).stops.size();
  }
  EXPECT_EQ(g.num_nodes(), tt.num_stations() + route_nodes);
  EXPECT_EQ(g.num_stations(), tt.num_stations());
}

TEST(TdGraph, StationOfMapping) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    EXPECT_TRUE(g.is_station_node(s));
    EXPECT_EQ(g.station_of(s), s);
  }
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    const Route& route = tt.route(r);
    for (std::uint32_t k = 0; k < route.stops.size(); ++k) {
      NodeId v = g.route_node(r, k);
      EXPECT_FALSE(g.is_station_node(v));
      EXPECT_EQ(g.station_of(v), route.stops[k]);
    }
  }
}

TEST(TdGraph, EdgeStructure) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    const Route& route = tt.route(r);
    const std::size_t n = route.stops.size();
    for (std::uint32_t k = 0; k < n; ++k) {
      NodeId v = g.route_node(r, k);
      auto edges = g.out_edges(v);
      bool has_alight = false, has_travel = false;
      for (const TdGraph::Edge& e : edges) {
        if (e.head == g.station_node(route.stops[k]) && e.ttf == kNoTtf) {
          has_alight = true;
          EXPECT_EQ(e.weight, 0u);
        }
        if (k + 1 < n && e.head == g.route_node(r, k + 1) && e.ttf != kNoTtf) {
          has_travel = true;
        }
      }
      EXPECT_TRUE(has_alight);
      EXPECT_EQ(has_travel, k + 1 < n);
    }
  }
  // Boarding edges carry the transfer time.
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    for (const TdGraph::Edge& e : g.out_edges(g.station_node(s))) {
      EXPECT_EQ(e.ttf, kNoTtf);
      EXPECT_EQ(e.weight, tt.transfer_time(s));
      EXPECT_FALSE(g.is_station_node(e.head));
    }
  }
}

TEST(TdGraph, DepartureNodeMatchesConnection) {
  Timetable tt = test::small_city(5);
  TdGraph g = TdGraph::build(tt);
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    for (const Connection& c : tt.outgoing(s)) {
      NodeId r = g.departure_node(tt, c);
      EXPECT_EQ(g.station_of(r), s);
      EXPECT_FALSE(g.is_station_node(r));
    }
  }
}

TEST(TdGraph, TravelEdgeEvaluatesTimetable) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  // Line 1 trips depart A at 08:00..11:00 hourly, 600 s to B.
  const Connection& c = tt.outgoing(0)[0];  // earliest from A
  NodeId r = g.departure_node(tt, c);
  // Edges are decoded views over SoA storage: copy, don't keep a pointer
  // into the iteration.
  TdGraph::Edge travel{kInvalidNode, kNoTtf, 0};
  for (const TdGraph::Edge& e : g.out_edges(r)) {
    if (e.ttf != kNoTtf) travel = e;
  }
  ASSERT_NE(travel.head, kInvalidNode);
  EXPECT_EQ(g.arrival_via(travel, c.dep), c.arr);
  // Showing up one second late waits for the next trip of that route.
  Time next = g.arrival_via(travel, c.dep + 1);
  EXPECT_GT(next, c.arr);
}

TEST(TdGraph, LoopRouteHasDistinctNodes) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId s2 = b.add_station("B", 0);
  b.add_trip(std::vector<TimetableBuilder::StopTime>{
      {a, 0, 0}, {s2, 100, 110}, {a, 200, 0}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  EXPECT_NE(g.route_node(0, 0), g.route_node(0, 2));
  EXPECT_EQ(g.station_of(g.route_node(0, 0)), a);
  EXPECT_EQ(g.station_of(g.route_node(0, 2)), a);
}

TEST(StationGraph, EdgesMatchConnections) {
  Timetable tt = test::tiny_line();
  StationGraph sg = StationGraph::build(tt);
  // A->B, B->C, A->C.
  EXPECT_EQ(sg.out_degree(0), 2u);
  EXPECT_EQ(sg.out_degree(1), 1u);
  EXPECT_EQ(sg.out_degree(2), 0u);
  EXPECT_EQ(sg.in_degree(2), 2u);
  // Reverse edges mirror forward ones.
  std::size_t fwd_total = 0, rev_total = 0;
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    fwd_total += sg.out_degree(s);
    rev_total += sg.in_degree(s);
  }
  EXPECT_EQ(fwd_total, rev_total);
}

TEST(StationGraph, MinRideAndCounts) {
  Timetable tt = test::tiny_line();
  StationGraph sg = StationGraph::build(tt);
  for (const StationGraph::Edge& e : sg.out_edges(0)) {
    if (e.head == 1) {
      EXPECT_EQ(e.min_ride, 600u);
      EXPECT_EQ(e.num_conns, 4u);
    } else if (e.head == 2) {
      EXPECT_EQ(e.min_ride, 2100u);  // the direct line
      EXPECT_EQ(e.num_conns, 4u);
    }
  }
}

/// The largest number of travel functions (non-constant out-words) on one
/// node's out-edges.
std::uint32_t max_ttf_out_degree(const TdGraph& g) {
  std::uint32_t widest = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::uint32_t ttfs = 0;
    for (TdGraph::EdgeId e = g.edge_begin(v); e < g.edge_end(v); ++e) {
      if (!TdGraph::word_is_const(g.edge_word(e))) ++ttfs;
    }
    widest = std::max(widest, ttfs);
  }
  return widest;
}

// The premise of the flat scalar engines' single relax body (TimeQuery,
// McTimeQuery; see time_query.cpp): in this graph model a node carries at
// most one travel function, so a flat settle never has a batch of TTF
// evaluations to phase. If the model changes, this fails first — and the
// flat engines need a batched body again.
TEST(TdGraph, EveryNodeCarriesAtMostOneTravelFunction) {
  for (const gen::Preset p : gen::kAllPresets) {
    const TdGraph g = TdGraph::build(gen::make_preset(p, 0.3));
    EXPECT_LE(max_ttf_out_degree(g), 1u) << gen::preset_name(p);
  }
  Rng rng(5);
  for (int net = 0; net < 8; ++net) {
    const TdGraph g = TdGraph::build(test::random_timetable(rng, 14, 8, 6));
    EXPECT_LE(max_ttf_out_degree(g), 1u) << "random network " << net;
  }
}

TEST(StationGraph, UndirectedDegree) {
  Timetable tt = test::tiny_line();
  StationGraph sg = StationGraph::build(tt);
  EXPECT_EQ(sg.degree(0), 2u);  // B and C
  EXPECT_EQ(sg.degree(1), 2u);  // A and C
  EXPECT_EQ(sg.degree(2), 2u);  // A and B
}

TEST(StationGraph, ConsistentOnGeneratedNetworks) {
  Timetable tt = test::small_railway(3);
  StationGraph sg = StationGraph::build(tt);
  std::set<std::pair<StationId, StationId>> pairs;
  for (const Connection& c : tt.connections()) pairs.insert({c.from, c.to});
  std::size_t edges = 0;
  for (StationId s = 0; s < tt.num_stations(); ++s) edges += sg.out_degree(s);
  EXPECT_EQ(edges, pairs.size());
}

}  // namespace
}  // namespace pconn
