// Edge cases and option combinations for the station-to-station engine.
#include <gtest/gtest.h>

#include "graph/station_graph.hpp"
#include "s2s/distance_table.hpp"
#include "s2s/s2s_query.hpp"
#include "s2s/transfer_selection.hpp"
#include "s2s/via.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

class S2sEdge : public ::testing::Test {
 protected:
  void SetUp() override {
    tt_ = test::small_railway(201);
    g_ = TdGraph::build(tt_);
    sg_ = StationGraph::build(tt_);
    ParallelSpcsOptions po;
    po.threads = 2;
    dt_ = DistanceTable::build(tt_, g_, {0, 1, 2, 3}, po);
  }
  Timetable tt_;
  TdGraph g_;
  StationGraph sg_;
  DistanceTable dt_;
};

TEST_F(S2sEdge, SourceEqualsTarget) {
  S2sOptions o;
  o.threads = 1;
  S2sQueryEngine engine(tt_, g_, sg_, &dt_, o);
  StationQueryResult res = engine.query(5, 5);
  // The identity profile: every departure "arrives" immediately.
  for (const ProfilePoint& p : res.profile) EXPECT_EQ(p.dep, p.arr);
}

TEST_F(S2sEdge, SourceEqualsTargetTransferStation) {
  S2sOptions o;
  o.threads = 1;
  S2sQueryEngine engine(tt_, g_, sg_, &dt_, o);
  StationQueryResult res = engine.query(2, 2);
  EXPECT_NE(engine.last_kind(), S2sQueryEngine::Kind::kTableLookup);
  for (const ProfilePoint& p : res.profile) EXPECT_EQ(p.dep, p.arr);
}

TEST_F(S2sEdge, UnreachableIsolatedTarget) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  StationId iso = b.add_station("Isolated", 0);
  b.add_trip(std::vector<TimetableBuilder::StopTime>{{a, 0, 100}, {c, 300, 0}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  StationGraph sg = StationGraph::build(tt);
  S2sOptions o;
  o.threads = 2;
  S2sQueryEngine engine(tt, g, sg, nullptr, o);
  EXPECT_TRUE(engine.query(a, iso).profile.empty());
  EXPECT_TRUE(engine.query(iso, a).profile.empty());
}

TEST_F(S2sEdge, AllOptionCombinationsAgree) {
  Rng rng(202);
  StationId s = static_cast<StationId>(rng.next_below(tt_.num_stations()));
  StationId t = static_cast<StationId>(rng.next_below(tt_.num_stations()));
  Profile reference;
  bool first = true;
  for (bool self_pruning : {true, false}) {
    for (bool stopping : {true, false}) {
      for (bool target_pruning : {true, false}) {
        S2sOptions o;
        o.threads = 2;
        o.self_pruning = self_pruning;
        o.stopping_criterion = stopping;
        o.target_pruning = target_pruning;
        S2sQueryEngine engine(tt_, g_, sg_, &dt_, o);
        Profile p = engine.query(s, t).profile;
        if (first) {
          reference = p;
          first = false;
        } else {
          test::expect_same_function(reference, p, tt_.period(),
                                     "option combination");
        }
      }
    }
  }
}

TEST_F(S2sEdge, TimeSlotPartitionAgrees) {
  S2sOptions slots;
  slots.threads = 3;
  slots.partition = PartitionStrategy::kEqualTimeSlots;
  S2sOptions counts;
  counts.threads = 3;
  S2sQueryEngine a(tt_, g_, sg_, &dt_, slots);
  S2sQueryEngine b(tt_, g_, sg_, &dt_, counts);
  Rng rng(203);
  for (int i = 0; i < 8; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt_.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt_.num_stations()));
    test::expect_same_function(a.query(s, t).profile, b.query(s, t).profile,
                               tt_.period(), "partition strategies");
  }
}

TEST_F(S2sEdge, ViaOfIsolatedStationEmpty) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  StationId iso = b.add_station("Isolated", 0);
  b.add_trip(std::vector<TimetableBuilder::StopTime>{{a, 0, 100}, {c, 300, 0}});
  Timetable tt = b.finalize();
  StationGraph sg = StationGraph::build(tt);
  std::vector<std::uint8_t> flags(tt.num_stations(), 0);
  flags[a] = 1;
  ViaResult v = find_via_stations(sg, c, iso, flags);
  EXPECT_TRUE(v.vias.empty());
  EXPECT_FALSE(v.local);
}

TEST_F(S2sEdge, StatsAccumulateAcrossKinds) {
  S2sOptions o;
  o.threads = 2;
  S2sQueryEngine engine(tt_, g_, sg_, &dt_, o);
  // Global query (regional to regional across hubs) must use the table.
  StationId s = kInvalidStation, t = kInvalidStation;
  for (StationId x = 4; x < tt_.num_stations(); ++x) {
    if (tt_.station_name(x).find(" R0.0-") != std::string::npos &&
        s == kInvalidStation) {
      s = x;
    }
    if (tt_.station_name(x).find(" R2.0-") != std::string::npos) t = x;
  }
  ASSERT_NE(s, kInvalidStation);
  ASSERT_NE(t, kInvalidStation);
  StationQueryResult res = engine.query(s, t);
  EXPECT_EQ(engine.last_kind(), S2sQueryEngine::Kind::kGlobal);
  EXPECT_GT(res.stats.settled, 0u);
}

TEST_F(S2sEdge, TransferSelectionDegreeZeroSelectsEverythingConnected) {
  auto picked = select_transfer_by_degree(sg_, 0);
  // Every station with at least one neighbor qualifies.
  for (StationId s = 0; s < tt_.num_stations(); ++s) {
    bool connected = sg_.degree(s) > 0;
    bool in = std::find(picked.begin(), picked.end(), s) != picked.end();
    EXPECT_EQ(connected, in);
  }
}

TEST_F(S2sEdge, ContractionSingleSurvivor) {
  auto picked = select_transfer_by_contraction(sg_, tt_, 1);
  ASSERT_EQ(picked.size(), 1u);
  // The sole survivor of a hub-and-spoke railway should be a hub.
  EXPECT_LT(picked[0], 4u);
}

}  // namespace
}  // namespace pconn
