#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "algo/all_to_one.hpp"
#include "algo/parallel_spcs.hpp"
#include "gen/generator.hpp"
#include "test_util.hpp"
#include "timetable/reverse.hpp"
#include "timetable/validation.hpp"

namespace pconn {
namespace {

TEST(ReverseTimetable, PreservesCounts) {
  Timetable tt = test::small_city(111);
  Timetable rev = make_reverse_timetable(tt);
  EXPECT_EQ(rev.num_stations(), tt.num_stations());
  EXPECT_EQ(rev.num_trips(), tt.num_trips());
  EXPECT_EQ(rev.num_connections(), tt.num_connections());
  EXPECT_TRUE(validate(rev).ok());
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    EXPECT_EQ(rev.transfer_time(s), tt.transfer_time(s));
  }
}

TEST(ReverseTimetable, ConnectionsAreMirrored) {
  Timetable tt = test::tiny_line();
  Timetable rev = make_reverse_timetable(tt);
  // Every forward connection (from, to, dep, arr) has a mirrored partner
  // (to, from, M(arr), M(arr) + duration) with M(t) = -t mod period.
  auto mirror = [&](Time t) {
    return (tt.period() - t % tt.period()) % tt.period();
  };
  for (const Connection& c : tt.connections()) {
    bool found = false;
    for (const Connection& r : rev.outgoing(c.to)) {
      if (r.to == c.from && r.dep == mirror(c.arr) &&
          r.duration() == c.duration()) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "conn " << c.from << "->" << c.to << " @" << c.dep;
  }
}

TEST(ReverseTimetable, DoubleReversalIsIdentityOnConnections) {
  Timetable tt = test::small_railway(112);
  Timetable back = make_reverse_timetable(make_reverse_timetable(tt));
  // Same connection multiset (train ids may be renumbered).
  auto key = [](const Connection& c) {
    return std::tuple(c.from, c.to, c.dep, c.arr);
  };
  std::vector<std::tuple<StationId, StationId, Time, Time>> a, b;
  for (const Connection& c : tt.connections()) a.push_back(key(c));
  for (const Connection& c : back.connections()) b.push_back(key(c));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// A passenger switches trips within a route for free, so the mirror must
// hold each forward route's trips together and apart from the rest. The
// greedy non-overtaking split regroups some of them when the clock runs
// backwards (losangeles-like and washington-like at full scale).
TEST(ReverseTimetable, KeepsEveryForwardRoute) {
  for (const gen::Preset p : gen::kAllPresets) {
    const Timetable tt = gen::make_preset(p, 1.0);
    const Timetable rev = make_reverse_timetable(tt);
    ASSERT_EQ(rev.num_trips(), tt.num_trips());
    ASSERT_EQ(rev.num_routes(), tt.num_routes()) << gen::preset_name(p);
    // Reversed trip z is forward trip z. Each forward route maps to one
    // reversed route; with equal route counts the map is a bijection.
    constexpr RouteId kUnset = std::numeric_limits<RouteId>::max();
    std::vector<RouteId> image(tt.num_routes(), kUnset);
    for (TrainId z = 0; z < tt.num_trips(); ++z) {
      RouteId& r = image[tt.trip(z).route];
      if (r == kUnset) r = rev.trip(z).route;
      ASSERT_EQ(rev.trip(z).route, r) << gen::preset_name(p) << " trip " << z;
    }
  }
}

// The central property: all-to-one transposes one-to-all exactly.
class AllToOneTransposition : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AllToOneTransposition, MatchesForwardProfiles) {
  Rng rng(GetParam());
  Timetable tt = test::random_timetable(rng, 9, 12, 5);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions opt;
  opt.threads = 2;
  ParallelSpcs forward(tt, g, opt);
  AllToOneProfiles backward(tt, opt);

  StationId target = static_cast<StationId>(rng.next_below(tt.num_stations()));
  OneToAllResult to_target = backward.all_to_one(target);
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    if (s == target) continue;
    OneToAllResult from_s = forward.one_to_all(s);
    ASSERT_EQ(to_target.profiles[s], from_s.profiles[target])
        << "source " << s << " target " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllToOneTransposition,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(AllToOne, WorksOnGeneratedNetworks) {
  for (auto make : {+[] { return test::small_city(113); },
                    +[] { return test::small_railway(114); }}) {
    Timetable tt = make();
    TdGraph g = TdGraph::build(tt);
    ParallelSpcsOptions opt;
    opt.threads = 2;
    ParallelSpcs forward(tt, g, opt);
    AllToOneProfiles backward(tt, opt);
    Rng rng(115);
    StationId target =
        static_cast<StationId>(rng.next_below(tt.num_stations()));
    OneToAllResult to_target = backward.all_to_one(target);
    for (int i = 0; i < 5; ++i) {
      StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
      if (s == target) continue;
      OneToAllResult from_s = forward.one_to_all(s);
      test::expect_same_function(to_target.profiles[s],
                                 from_s.profiles[target], tt.period(),
                                 "all-to-one " + std::to_string(s));
    }
  }
}

TEST(AllToOne, UnreachableSourcesEmpty) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  StationId iso = b.add_station("Isolated", 0);
  b.add_trip(std::vector<TimetableBuilder::StopTime>{{a, 0, 100}, {c, 300, 0}});
  Timetable tt = b.finalize();
  ParallelSpcsOptions opt;
  opt.threads = 1;
  AllToOneProfiles backward(tt, opt);
  OneToAllResult res = backward.all_to_one(c);
  EXPECT_FALSE(res.profiles[a].empty());
  EXPECT_TRUE(res.profiles[iso].empty());
}

}  // namespace
}  // namespace pconn
