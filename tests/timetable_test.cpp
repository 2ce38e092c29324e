#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>
#include <tuple>
#include <vector>

#include "test_util.hpp"
#include "timetable/builder.hpp"
#include "timetable/types.hpp"
#include "timetable/validation.hpp"

namespace pconn {
namespace {

using St = TimetableBuilder::StopTime;

TEST(Delta, ForwardAndWrap) {
  EXPECT_EQ(delta(100, 200, 86400), 100u);
  EXPECT_EQ(delta(200, 100, 86400), 86400u - 100);
  EXPECT_EQ(delta(500, 500, 86400), 0u);
  // Arguments outside the period are reduced first.
  EXPECT_EQ(delta(86400 + 10, 20, 86400), 10u);
}

TEST(Builder, RejectsMalformedTrips) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  StationId d = b.add_station("C", 0);
  EXPECT_THROW(b.add_trip({{a, 0, 0}}), std::invalid_argument);
  EXPECT_THROW(b.add_trip({{a, 0, 0}, {a, 100, 100}}), std::invalid_argument);
  EXPECT_THROW(b.add_trip({{a, 0, 0}, {99, 100, 100}}), std::invalid_argument);
  // departure before arrival at an intermediate stop (final-stop departures
  // are ignored by design)
  EXPECT_THROW(b.add_trip({{a, 0, 0}, {c, 100, 50}, {d, 200, 200}}),
               std::invalid_argument);
  // zero-length hop
  EXPECT_THROW(b.add_trip({{a, 0, 100}, {c, 100, 100}}), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRangeParameters) {
  // Period 0 and periods outside the signed-lane-safe range.
  EXPECT_THROW(TimetableBuilder{0}, std::invalid_argument);
  EXPECT_THROW(TimetableBuilder{Time{1} << 30}, std::invalid_argument);
  (void)TimetableBuilder{(Time{1} << 30) - 1};  // boundary is fine

  // Transfer times must stay below the period.
  TimetableBuilder b(3600);
  EXPECT_THROW(b.add_station("X", 3600), std::invalid_argument);
  b.add_station("X", 3599);

  // A trip spanning past the supported time range (after normalization the
  // span is what matters, not the absolute clock values).
  TimetableBuilder day;  // kDayseconds period
  StationId p = day.add_station("P", 0);
  StationId q = day.add_station("Q", 0);
  EXPECT_THROW(day.add_trip({{p, 0, 0}, {q, Time{1} << 30, 0}}),
               std::invalid_argument);
  day.add_trip({{p, 0, 0}, {q, 600, 0}});
  EXPECT_EQ(day.finalize().num_trips(), 1u);
}

TEST(Builder, NormalizesFirstDepartureIntoPeriod) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  b.add_trip({{a, 0, 2 * kDayseconds + 100}, {c, 2 * kDayseconds + 700, 0}});
  Timetable tt = b.finalize();
  ASSERT_EQ(tt.num_connections(), 1u);
  EXPECT_EQ(tt.connections()[0].dep, 100u);
  EXPECT_EQ(tt.connections()[0].arr, 700u);
}

TEST(Builder, RoutePartitionBySequence) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId s2 = b.add_station("B", 0);
  StationId c = b.add_station("C", 0);
  b.add_trip({{a, 0, 100}, {s2, 200, 210}, {c, 300, 0}});
  b.add_trip({{a, 0, 400}, {s2, 500, 510}, {c, 600, 0}});   // same sequence
  b.add_trip({{c, 0, 100}, {s2, 200, 210}, {a, 300, 0}});   // reversed
  b.add_trip({{a, 0, 100}, {c, 250, 0}});                   // shorter
  Timetable tt = b.finalize();
  EXPECT_EQ(tt.num_routes(), 3u);
  // The two same-sequence trips share a route, ordered by departure.
  bool found = false;
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    if (tt.route(r).trips.size() == 2) {
      found = true;
      const Route& route = tt.route(r);
      EXPECT_EQ(std::vector<StationId>(route.stops.begin(), route.stops.end()),
                (std::vector<StationId>{a, s2, c}));
      EXPECT_LE(tt.trip(route.trips[0]).departures[0],
                tt.trip(route.trips[1]).departures[0]);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Builder, OvertakingTripsSplitIntoSeparateRoutes) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  // Slow early trip overtaken by a fast later one.
  b.add_trip({{a, 0, 1000}, {c, 5000, 0}});
  b.add_trip({{a, 0, 2000}, {c, 3000, 0}});
  Timetable tt = b.finalize();
  EXPECT_EQ(tt.num_routes(), 2u);
  EXPECT_TRUE(validate(tt).ok());
}

TEST(Builder, NonOvertakingTripsShareRoute) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  b.add_trip({{a, 0, 1000}, {c, 2000, 0}});
  b.add_trip({{a, 0, 3000}, {c, 4000, 0}});
  Timetable tt = b.finalize();
  EXPECT_EQ(tt.num_routes(), 1u);
  EXPECT_EQ(tt.route(0).trips.size(), 2u);
}

TEST(Builder, LoopTripAllowed) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId s2 = b.add_station("B", 0);
  StationId c = b.add_station("C", 0);
  // Ring: A -> B -> C -> A.
  b.add_trip({{a, 0, 0}, {s2, 100, 110}, {c, 200, 210}, {a, 300, 0}});
  Timetable tt = b.finalize();
  EXPECT_EQ(tt.num_connections(), 3u);
  EXPECT_TRUE(validate(tt).ok());
  // The connection positions disambiguate the repeated station A.
  auto out_a = tt.outgoing(a);
  ASSERT_EQ(out_a.size(), 1u);
  EXPECT_EQ(out_a[0].pos, 0u);
}

TEST(Timetable, OutgoingSortedByDeparture) {
  Rng rng(11);
  Timetable tt = test::random_timetable(rng, 8, 10, 6);
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    auto conns = tt.outgoing(s);
    for (std::size_t i = 1; i < conns.size(); ++i) {
      EXPECT_LE(conns[i - 1].dep, conns[i].dep);
      EXPECT_EQ(conns[i].from, s);
    }
  }
}

TEST(Timetable, ConnectionCountsMatchTrips) {
  Timetable tt = test::tiny_line();
  // 4 trips with 2 hops + 4 trips with 1 hop.
  EXPECT_EQ(tt.num_connections(), 4u * 2 + 4u * 1);
  EXPECT_EQ(tt.num_trips(), 8u);
  EXPECT_EQ(tt.num_stations(), 3u);
  EXPECT_TRUE(validate(tt).ok());
}

TEST(Timetable, TransferTimesStored) {
  Timetable tt = test::tiny_line();
  EXPECT_EQ(tt.transfer_time(0), 60u);
  EXPECT_EQ(tt.transfer_time(1), 120u);
}

TEST(Timetable, AvgOutgoingConnections) {
  Timetable tt = test::tiny_line();
  EXPECT_DOUBLE_EQ(tt.avg_outgoing_connections(), 12.0 / 3.0);
}

// Partitioning binary-searches the view and callers compare it as a range.
static_assert(std::ranges::random_access_range<ConnectionView> &&
              std::ranges::sized_range<ConnectionView>);

// The timetable stores connections as trip references and decodes the
// rest on read. Every decoded entry equals the connection derived here from
// the trip and route rows alone, in the builder's order: by departure
// station, departure (reduced into the period), arrival, train — and stop
// position, which no preset ties on.
TEST(Timetable, DecodedConnectionsMatchTripRowsOnEveryPreset) {
  for (const gen::Preset p : gen::kAllPresets) {
    const Timetable tt = gen::make_preset(p, 1.0);
    const Time period = tt.period();
    std::vector<Connection> want;
    for (TrainId t = 0; t < tt.num_trips(); ++t) {
      const Trip trip = tt.trip(t);
      const Route route = tt.route(trip.route);
      for (std::uint32_t k = 0; k + 1 < route.stops.size(); ++k) {
        const Time dep = trip.departures[k] % period;
        want.push_back({t, route.stops[k], route.stops[k + 1], dep,
                        dep + trip.arrivals[k + 1] - trip.departures[k], k});
      }
    }
    std::ranges::sort(want, {}, [](const Connection& c) {
      return std::tuple{c.from, c.dep, c.arr, c.train, c.pos};
    });
    const ConnectionView got = tt.connections();
    ASSERT_EQ(got.size(), want.size()) << gen::preset_name(p);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const Connection c = got[i];
      const Connection& w = want[i];
      const bool same = c.train == w.train && c.from == w.from &&
                        c.to == w.to && c.dep == w.dep && c.arr == w.arr &&
                        c.pos == w.pos;
      if (!same && ++mismatches <= 5) {
        ADD_FAILURE() << gen::preset_name(p) << " connection " << i
                      << ": train " << c.train << "/" << w.train << " from "
                      << c.from << "/" << w.from << " to " << c.to << "/"
                      << w.to << " dep " << c.dep << "/" << w.dep << " arr "
                      << c.arr << "/" << w.arr << " pos " << c.pos << "/"
                      << w.pos;
      }
    }
    EXPECT_EQ(mismatches, 0u) << gen::preset_name(p);
    for (StationId s = 0; s < tt.num_stations(); ++s) {
      const ConnectionView out = tt.outgoing(s);
      ASSERT_EQ(out.refs().data(),
                got.refs().data() + tt.outgoing_offset(s));
      for (const Connection& c : out) EXPECT_EQ(c.from, s);
    }
  }
}

TEST(Validation, RandomTimetablesAreValid) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng(seed);
    Timetable tt = test::random_timetable(rng, 12, 15, 8);
    ValidationReport rep = validate(tt);
    EXPECT_TRUE(rep.ok()) << rep.problems.front();
  }
}

}  // namespace
}  // namespace pconn
