#include <gtest/gtest.h>

#include "algo/parallel_spcs.hpp"
#include "algo/time_query.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

ParallelSpcsOptions serial_opts() {
  ParallelSpcsOptions o;
  o.threads = 1;
  return o;
}

TEST(Spcs, TinyLineProfileHandComputed) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcs spcs(tt, g, serial_opts());
  OneToAllResult res = spcs.one_to_all(0);

  // Profile A -> B: the four line-1 departures, 600 s each.
  const Profile& to_b = res.profiles[1];
  ASSERT_EQ(to_b.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(to_b[i].dep, 8u * 3600 + i * 3600);
    EXPECT_EQ(to_b[i].arr, to_b[i].dep + 600);
  }

  // Profile A -> C: line 1 (21 min) and the direct line (35 min)
  // alternate; every half-hour departure arrives before the next hourly
  // one, so all 8 points survive the reduction.
  const Profile& to_c = res.profiles[2];
  EXPECT_EQ(to_c.size(), 8u);
  EXPECT_TRUE(profile_is_fifo(to_c, tt.period()));
}

// The defining property of a profile query: evaluating dist(S, T, ·) at any
// departure time equals a time query at that time.
class SpcsVsTimeQuery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpcsVsTimeQuery, ProfileEvaluatesToTimeQueryArrivals) {
  Rng rng(GetParam());
  Timetable tt = test::random_timetable(rng, 9, 11, 5);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcs spcs(tt, g, serial_opts());
  TimeQuery q(tt, g);

  StationId src = static_cast<StationId>(rng.next_below(tt.num_stations()));
  OneToAllResult res = spcs.one_to_all(src);

  std::vector<Time> samples;
  for (const Connection& c : tt.outgoing(src)) samples.push_back(c.dep);
  for (int i = 0; i < 10; ++i) {
    samples.push_back(static_cast<Time>(rng.next_below(tt.period())));
  }
  for (Time tau : samples) {
    q.run(src, tau);
    for (StationId t = 0; t < tt.num_stations(); ++t) {
      if (t == src) continue;  // dist(S, S, .) is trivially 0, which the
                               // connection-point representation cannot hold
      ASSERT_EQ(eval_profile(res.profiles[t], tau, tt.period()),
                q.arrival_at(t))
          << "src " << src << " -> " << t << " at " << tau;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpcsVsTimeQuery,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Spcs, SelfPruningDoesNotChangeProfiles) {
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    Rng rng(seed);
    Timetable tt = test::random_timetable(rng, 10, 12, 6);
    TdGraph g = TdGraph::build(tt);
    ParallelSpcsOptions with = serial_opts();
    ParallelSpcsOptions without = serial_opts();
    without.self_pruning = false;
    ParallelSpcs a(tt, g, with), b(tt, g, without);
    StationId src = static_cast<StationId>(rng.next_below(tt.num_stations()));
    OneToAllResult ra = a.one_to_all(src);
    OneToAllResult rb = b.one_to_all(src);
    for (StationId t = 0; t < tt.num_stations(); ++t) {
      EXPECT_EQ(ra.profiles[t], rb.profiles[t]) << "station " << t;
    }
    // And pruning must actually save work on non-trivial inputs.
    EXPECT_LE(ra.stats.settled, rb.stats.settled);
  }
}

TEST(Spcs, SelfPruningSavesWorkOnDenseNetwork) {
  // Self-pruning fires when later connections catch up to the same
  // vehicles, which needs travel times across the network to dwarf the
  // headway (the paper's "only few connections prove useful when traveling
  // sufficiently far away"). Use a geometry with diameter >> headway.
  gen::BusCityConfig cfg;
  cfg.districts_x = 3;
  cfg.districts_y = 3;
  cfg.hop_seconds = 240;
  cfg.arterial_hop_seconds = 300;
  cfg.frequency.base_headway = 600;
  cfg.seed = 21;
  Timetable tt = gen::make_bus_city(cfg);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions without = serial_opts();
  without.self_pruning = false;
  ParallelSpcs with(tt, g, serial_opts()), off(tt, g, without);
  OneToAllResult ra = with.one_to_all(0);
  OneToAllResult rb = off.one_to_all(0);
  EXPECT_LT(static_cast<double>(ra.stats.settled),
            0.6 * static_cast<double>(rb.stats.settled))
      << "self-pruning should cut settled connections substantially";
  EXPECT_GT(ra.stats.self_pruned, 0u);
  for (StationId t = 0; t < tt.num_stations(); ++t) {
    EXPECT_EQ(ra.profiles[t], rb.profiles[t]);
  }
}

TEST(Spcs, ProfilesAreFifoAndSorted) {
  Timetable tt = test::small_city(22);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcs spcs(tt, g, serial_opts());
  OneToAllResult res = spcs.one_to_all(5);
  for (StationId t = 0; t < tt.num_stations(); ++t) {
    const Profile& p = res.profiles[t];
    for (std::size_t i = 1; i < p.size(); ++i) {
      EXPECT_LT(p[i - 1].dep, p[i].dep);
      EXPECT_LT(p[i - 1].arr, p[i].arr);
    }
    EXPECT_TRUE(profile_is_fifo(p, tt.period())) << "station " << t;
  }
}

TEST(Spcs, SourceProfileIsIdentity) {
  Timetable tt = test::small_city(23);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcs spcs(tt, g, serial_opts());
  OneToAllResult res = spcs.one_to_all(3);
  for (const ProfilePoint& p : res.profiles[3]) EXPECT_EQ(p.dep, p.arr);
}

TEST(Spcs, StationWithoutDeparturesYieldsEmptyProfiles) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  StationId sink = b.add_station("Sink", 0);
  using St = TimetableBuilder::StopTime;
  b.add_trip(std::vector<St>{{a, 0, 100}, {c, 200, 0}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcs spcs(tt, g, serial_opts());
  OneToAllResult res = spcs.one_to_all(sink);
  EXPECT_EQ(res.stats.settled, 0u);
  for (StationId t = 0; t < tt.num_stations(); ++t) {
    EXPECT_TRUE(res.profiles[t].empty());
  }
}

TEST(Spcs, StoppingCriterionPreservesTargetProfile) {
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    Rng rng(seed);
    Timetable tt = test::random_timetable(rng, 10, 14, 6);
    TdGraph g = TdGraph::build(tt);
    ParallelSpcs spcs(tt, g, serial_opts());
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    OneToAllResult full = spcs.one_to_all(s);
    StationQueryResult stopped = spcs.station_to_station(s, t);
    test::expect_same_function(full.profiles[t], stopped.profile, tt.period(),
                               "stopping criterion");
    EXPECT_LE(stopped.stats.settled, full.stats.settled);
  }
}

TEST(Spcs, StoppingCriterionSavesWork) {
  Timetable tt = test::small_city(24);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcs spcs(tt, g, serial_opts());
  OneToAllResult full = spcs.one_to_all(0);
  StationQueryResult stopped = spcs.station_to_station(0, 1);  // neighbor
  EXPECT_LT(stopped.stats.settled, full.stats.settled);
}

TEST(Spcs, WorkCountersAreCoherent) {
  Timetable tt = test::small_city(25);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcs spcs(tt, g, serial_opts());
  OneToAllResult res = spcs.one_to_all(2);
  // Everything pushed is eventually settled in a run to exhaustion.
  EXPECT_EQ(res.stats.pushed, res.stats.settled);
  EXPECT_GT(res.stats.relaxed, res.stats.settled / 2);
  EXPECT_GT(res.stats.self_pruned, 0u);
  EXPECT_EQ(res.stats.stop_pruned, 0u);
  EXPECT_EQ(res.stats.table_pruned, 0u);
}

}  // namespace
}  // namespace pconn
