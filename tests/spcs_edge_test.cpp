// Edge cases and stress properties for SPCS and the parallel driver.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "algo/lc_profile.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/time_query.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

TEST(SpcsEdge, MidnightWrappingConnections) {
  // Late-night trip arriving after midnight plus an early train next day.
  TimetableBuilder b;
  StationId a = b.add_station("A", 60);
  StationId m = b.add_station("M", 60);
  StationId c = b.add_station("C", 60);
  using St = TimetableBuilder::StopTime;
  Time late = 23 * 3600 + 1800;  // 23:30
  b.add_trip(std::vector<St>{{a, 0, late}, {m, late + 2400, 0}});  // arr 00:10
  b.add_trip(std::vector<St>{{m, 0, 600}, {c, 1800, 0}});  // 00:10, misses T(M)?
  b.add_trip(std::vector<St>{{m, 0, 3600}, {c, 4800, 0}});  // 01:00
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o;
  o.threads = 1;
  ParallelSpcs spcs(tt, g, o);
  OneToAllResult res = spcs.one_to_all(a);
  ASSERT_EQ(res.profiles[c].size(), 1u);
  // 23:30 dep, arrive M at 24:10; the 00:10 (=24:10) next-day train departs
  // exactly then but T(M)=60s means we catch the 01:00 one, arriving 01:20.
  EXPECT_EQ(res.profiles[c][0].dep, late);
  EXPECT_EQ(res.profiles[c][0].arr, kDayseconds + 4800);
}

TEST(SpcsEdge, ZeroTransferTimeStation) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId m = b.add_station("M", 0);  // instant transfers
  StationId c = b.add_station("C", 0);
  using St = TimetableBuilder::StopTime;
  b.add_trip(std::vector<St>{{a, 0, 1000}, {m, 2000, 0}});
  b.add_trip(std::vector<St>{{m, 0, 2000}, {c, 3000, 0}});  // same-second hop
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o;
  o.threads = 1;
  ParallelSpcs spcs(tt, g, o);
  OneToAllResult res = spcs.one_to_all(a);
  ASSERT_EQ(res.profiles[c].size(), 1u);
  EXPECT_EQ(res.profiles[c][0].arr, 3000u);
}

TEST(SpcsEdge, LoopRouteTerminatesAndIsCorrect) {
  // Ring lines revisit their first station; SPCS must terminate and agree
  // with time queries.
  TimetableBuilder b;
  StationId a = b.add_station("A", 30);
  StationId m = b.add_station("B", 30);
  StationId c = b.add_station("C", 30);
  using St = TimetableBuilder::StopTime;
  for (Time t = 3600; t <= 10 * 3600; t += 1800) {
    b.add_trip(std::vector<St>{
        {a, 0, t}, {m, t + 300, t + 330}, {c, t + 600, t + 630}, {a, t + 900, 0}});
  }
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o;
  o.threads = 2;
  ParallelSpcs spcs(tt, g, o);
  OneToAllResult res = spcs.one_to_all(a);
  TimeQuery q(tt, g);
  for (Time tau : {0u, 3600u, 3601u, 5400u, 40000u}) {
    q.run(a, tau);
    for (StationId s : {m, c}) {
      EXPECT_EQ(eval_profile(res.profiles[s], tau, tt.period()),
                q.arrival_at(s))
          << "tau " << tau << " station " << s;
    }
  }
}

TEST(SpcsEdge, ManyThreadsOnTinyConnSet) {
  // More threads than connections: empty ranges must be handled.
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  b.add_trip(std::vector<TimetableBuilder::StopTime>{{a, 0, 500}, {c, 900, 0}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o;
  o.threads = 8;
  ParallelSpcs spcs(tt, g, o);
  OneToAllResult res = spcs.one_to_all(a);
  ASSERT_EQ(res.profiles[c].size(), 1u);
  EXPECT_EQ(res.profiles[c][0], (ProfilePoint{500, 900}));
}

TEST(SpcsEdge, RandomizedCrossEngineSweep) {
  // Heavier randomized cross-validation: SPCS (serial, parallel, both
  // partition strategies, pruning variants) vs LC vs time queries.
  for (std::uint64_t seed = 301; seed < 306; ++seed) {
    Rng rng(seed);
    Timetable tt = test::random_timetable(rng, 12, 18, 5);
    TdGraph g = TdGraph::build(tt);
    StationId src = static_cast<StationId>(rng.next_below(tt.num_stations()));

    ParallelSpcsOptions o1;
    o1.threads = 1;
    ParallelSpcs base(tt, g, o1);
    OneToAllResult ref = base.one_to_all(src);

    for (unsigned threads : {2u, 5u}) {
      for (PartitionStrategy strat : {PartitionStrategy::kEqualConnections,
                                      PartitionStrategy::kEqualTimeSlots,
                                      PartitionStrategy::kKMeans}) {
        ParallelSpcsOptions o;
        o.threads = threads;
        o.partition = strat;
        ParallelSpcs spcs(tt, g, o);
        OneToAllResult res = spcs.one_to_all(src);
        for (StationId t = 0; t < tt.num_stations(); ++t) {
          ASSERT_EQ(ref.profiles[t], res.profiles[t])
              << "seed " << seed << " threads " << threads;
        }
      }
    }

    LcProfileQuery lc(tt, g);
    lc.run(src);
    TimeQuery q(tt, g);
    for (int i = 0; i < 5; ++i) {
      Time tau = static_cast<Time>(rng.next_below(tt.period()));
      q.run(src, tau);
      for (StationId t = 0; t < tt.num_stations(); ++t) {
        if (t == src) continue;
        Time want = q.arrival_at(t);
        ASSERT_EQ(eval_profile(ref.profiles[t], tau, tt.period()), want);
        ASSERT_EQ(eval_profile(lc.profile(t), tau, tt.period()), want);
      }
    }
  }
}

TEST(SpcsEdge, StoppingCriterionWithUnreachableTarget) {
  TimetableBuilder b;
  StationId a = b.add_station("A", 0);
  StationId c = b.add_station("B", 0);
  StationId iso = b.add_station("Isolated", 0);
  b.add_trip(std::vector<TimetableBuilder::StopTime>{{a, 0, 100}, {c, 300, 0}});
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o;
  o.threads = 1;
  ParallelSpcs spcs(tt, g, o);
  StationQueryResult res = spcs.station_to_station(a, iso);
  EXPECT_TRUE(res.profile.empty());
}

// ---------------------------------------------------------- chunk boundaries

/// The served station-to-station query walks conn(S) in kSpcsChunk-wide
/// chunks; each chunk's profile at T must merge into exactly what the
/// unchunked one-to-all search reduces at T, for every thread count.
void expect_chunked_equals_one_to_all(const Timetable& tt, const TdGraph& g,
                                      StationId s,
                                      std::span<const StationId> targets,
                                      const OneToAllResult& want) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelSpcsOptions o;
    o.threads = threads;
    ParallelSpcs spcs(tt, g, o);
    for (const StationId t : targets) {
      ASSERT_EQ(spcs.station_to_station(s, t).profile, want.profiles[t])
          << s << " -> " << t << " |conn(S)| " << tt.outgoing(s).size()
          << " threads " << threads;
    }
  }
}

void expect_chunked_identity(const Timetable& tt, StationId s,
                             std::span<const StationId> targets) {
  const TdGraph g = TdGraph::build(tt);
  const OneToAllResult want = ParallelSpcs(tt, g, {}).one_to_all(s);
  expect_chunked_equals_one_to_all(tt, g, s, targets, want);
}

TEST(SpcsEdge, ChunkBoundariesOnRandomNetwork) {
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

TEST(SpcsEdge, ChunkedBusiestStationOnEveryPreset) {
  for (const gen::Preset p : gen::kAllPresets) {
    SCOPED_TRACE(gen::preset_name(p));
    const Timetable tt = gen::make_preset(p, 0.3);
    const StationId s = test::busiest_station(tt);
    ASSERT_GT(tt.outgoing(s).size(), 2 * kSpcsChunk);
    Rng rng(60 + static_cast<std::uint64_t>(p));
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
