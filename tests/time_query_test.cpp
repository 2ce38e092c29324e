#include <gtest/gtest.h>

#include "algo/journey.hpp"
#include "algo/time_query.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

TEST(TimeQuery, TinyLineHandComputed) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  TimeQuery q(tt, g);

  // Ready at A at 07:00: take the 08:00 line-1 trip; B at 08:10, C at 08:21.
  q.run(0, 7 * 3600);
  EXPECT_EQ(q.arrival_at(0), 7u * 3600);
  EXPECT_EQ(q.arrival_at(1), 8u * 3600 + 600);
  EXPECT_EQ(q.arrival_at(2), 8u * 3600 + 1260);

  // Ready at 08:05: line 1 is gone; the 08:30 direct trip reaches C at
  // 09:05, beating the 09:00 line-1 trip (09:21).
  q.run(0, 8 * 3600 + 300);
  EXPECT_EQ(q.arrival_at(2), 8u * 3600 + 1800 + 2100);

  // Departing exactly at a trip's departure catches it (no origin
  // transfer penalty).
  q.run(0, 8 * 3600);
  EXPECT_EQ(q.arrival_at(1), 8u * 3600 + 600);

  // A flat engine's labels are final at every node: the overlay's
  // down-sweep is a no-op on it.
  q.settle_contracted();
  EXPECT_EQ(q.arrival_at(1), 8u * 3600 + 600);
  EXPECT_EQ(q.labels().get(g.station_node(1)), 8u * 3600 + 600);
}

TEST(TimeQuery, TransferTimeRespectedAtIntermediate) {
  // A -> B on line 1, then B -> C on a separate line that leaves B shortly
  // after arrival: only catchable if T(B) allows.
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId s2 = b.add_station("B", 120);
  StationId c = b.add_station("C", 0);
  using St = TimetableBuilder::StopTime;
  b.add_trip(std::vector<St>{{a, 0, 1000}, {s2, 2000, 2000}});
  // Departs B at 2060: within the 120 s transfer window -> must be missed.
  b.add_trip(std::vector<St>{{s2, 0, 2060}, {c, 3000, 3000}});
  // Departs B at 2500: catchable.
  b.add_trip(std::vector<St>{{s2, 0, 2500}, {c, 3500, 3500}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  TimeQuery q(tt, g);
  q.run(a, 0);
  EXPECT_EQ(q.arrival_at(c), 3500u);
}

TEST(TimeQuery, WrapsPastMidnight) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  using St = TimetableBuilder::StopTime;
  b.add_trip(std::vector<St>{{a, 0, 8 * 3600}, {c, 8 * 3600 + 600, 0}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  TimeQuery q(tt, g);
  // Ready at 22:00: the only trip is tomorrow 08:00.
  q.run(a, 22 * 3600);
  EXPECT_EQ(q.arrival_at(c), kDayseconds + 8u * 3600 + 600);
}

TEST(TimeQuery, UnreachableStationsInfinity) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  b.add_station("Isolated", 0);
  StationId c = b.add_station("C", 0);
  using St = TimetableBuilder::StopTime;
  b.add_trip(std::vector<St>{{a, 0, 100}, {c, 200, 0}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  TimeQuery q(tt, g);
  q.run(a, 0);
  EXPECT_EQ(q.arrival_at(1), kInfTime);
  EXPECT_EQ(q.arrival_at(c), 200u);
}

class TimeQueryOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimeQueryOracleTest, MatchesBruteForceEverywhere) {
  Rng rng(GetParam());
  Timetable tt = test::random_timetable(rng, 10, 12, 5);
  TdGraph g = TdGraph::build(tt);
  TimeQuery q(tt, g);
  for (int trial = 0; trial < 3; ++trial) {
    StationId src = static_cast<StationId>(rng.next_below(tt.num_stations()));
    Time tau = static_cast<Time>(rng.next_below(tt.period()));
    q.run(src, tau);
    std::vector<Time> oracle =
        test::brute_force_arrivals(g, g.station_node(src), tau);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(q.arrival_at_node(v), oracle[v])
          << "node " << v << " src " << src << " tau " << tau;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeQueryOracleTest,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(TimeQuery, TargetStopsEarly) {
  Timetable tt = test::small_city(11);
  TdGraph g = TdGraph::build(tt);
  TimeQuery full(tt, g), early(tt, g);
  full.run(0, 8 * 3600);
  early.run(0, 8 * 3600, static_cast<StationId>(tt.num_stations() - 1));
  EXPECT_EQ(full.arrival_at(tt.num_stations() - 1),
            early.arrival_at(tt.num_stations() - 1));
  EXPECT_LE(early.stats().settled, full.stats().settled);
}

TEST(Journey, LegsAreConsistent) {
  Timetable tt = test::small_city(13);
  TdGraph g = TdGraph::build(tt);
  TimeQuery q(tt, g);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    if (s == t) continue;
    Time tau = static_cast<Time>(rng.next_below(tt.period()));
    q.run(s, tau);
    Journey j;
    const bool found = q.extract_journey_into(s, tau, t, j);
    if (q.arrival_at(t) == kInfTime) {
      EXPECT_FALSE(found);
      continue;
    }
    ASSERT_TRUE(found);
    EXPECT_EQ(j.arrival, q.arrival_at(t));
    ASSERT_FALSE(j.legs.empty());
    EXPECT_EQ(j.legs.front().from, s);
    EXPECT_EQ(j.legs.back().to, t);
    EXPECT_GE(j.legs.front().dep, tau);
    for (std::size_t i = 0; i < j.legs.size(); ++i) {
      const JourneyLeg& leg = j.legs[i];
      EXPECT_LE(leg.dep, leg.arr);
      if (i > 0) {
        // Consecutive legs connect at a station in time order.
        EXPECT_EQ(j.legs[i - 1].to, leg.from);
        EXPECT_LE(j.legs[i - 1].arr, leg.dep);
      }
      // The leg matches its trip's schedule.
      const Trip& trip = tt.trip(leg.train);
      const Route& route = tt.route(trip.route);
      bool matches = false;
      for (std::size_t k = 0; k < route.stops.size(); ++k) {
        if (route.stops[k] == leg.from &&
            trip.departures[k] % tt.period() == leg.dep % tt.period()) {
          matches = true;
        }
      }
      EXPECT_TRUE(matches) << "leg " << i;
    }
    // The arrival equals the last leg's arrival.
    EXPECT_EQ(j.legs.back().arr, j.arrival);
  }
}

TEST(Journey, ProfileJourneysMatchProfilePoints) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  // Build the A -> C profile via time queries at each known departure.
  Profile profile;
  TimeQuery q(tt, g);
  for (const Connection& c : tt.outgoing(0)) {
    q.run(0, c.dep);
    profile.push_back({c.dep, q.arrival_at(2)});
  }
  profile = reduce_profile(profile, tt.period());
  auto journeys = profile_journeys(tt, g, profile, 0, 2);
  ASSERT_EQ(journeys.size(), profile.size());
  for (std::size_t i = 0; i < journeys.size(); ++i) {
    EXPECT_EQ(journeys[i].arrival, profile[i].arr);
    EXPECT_EQ(journeys[i].departure, profile[i].dep);
    EXPECT_FALSE(journeys[i].legs.empty());
  }
}

TEST(Journey, LatestDepartureBy) {
  Profile p{{1000, 1600}, {2000, 2300}, {3000, 3700}};
  EXPECT_EQ(latest_departure_by(p, 1599), kNoConn);
  EXPECT_EQ(latest_departure_by(p, 1600), 0u);
  EXPECT_EQ(latest_departure_by(p, 2299), 0u);
  EXPECT_EQ(latest_departure_by(p, 2300), 1u);
  EXPECT_EQ(latest_departure_by(p, 99999), 2u);
  EXPECT_EQ(latest_departure_by({}, 5000), kNoConn);
}

TEST(Journey, DescriptionMentionsStations) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  TimeQuery q(tt, g);
  q.run(0, 7 * 3600);
  Journey j;
  ASSERT_TRUE(q.extract_journey_into(0, 7 * 3600, 2, j));
  std::string text = describe_journey(tt, j);
  EXPECT_NE(text.find("A"), std::string::npos);
  EXPECT_NE(text.find("C"), std::string::npos);
}

}  // namespace
}  // namespace pconn
