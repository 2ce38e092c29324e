#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/parallel_spcs.hpp"
#include "algo/partition.hpp"
#include "test_util.hpp"
#include "util/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace pconn {
namespace {

TEST(Partition, EqualConnectionsBalanced) {
  Timetable tt = test::small_city(41);
  auto conns = tt.outgoing(0);
  for (unsigned p : {1u, 2u, 3u, 4u, 8u}) {
    auto b = partition_connections(conns, p,
                                   PartitionStrategy::kEqualConnections,
                                   tt.period());
    ASSERT_EQ(b.size(), p + 1);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), conns.size());
    for (unsigned k = 0; k < p; ++k) {
      EXPECT_LE(b[k], b[k + 1]);
      EXPECT_LE(b[k + 1] - b[k], conns.size() / p + 1);
    }
    EXPECT_LE(partition_imbalance(b), 1.0 + 1.0 * p / conns.size() + 1e-9);
  }
}

TEST(Partition, EqualTimeSlotsRespectsDepartures) {
  Timetable tt = test::small_city(42);
  auto conns = tt.outgoing(0);
  auto b = partition_connections(conns, 4, PartitionStrategy::kEqualTimeSlots,
                                 tt.period());
  for (unsigned k = 0; k < 4; ++k) {
    Time slot_end = static_cast<Time>(
        (static_cast<std::uint64_t>(tt.period()) * (k + 1)) / 4);
    for (std::uint32_t i = b[k]; i < b[k + 1]; ++i) {
      EXPECT_LT(conns[i].dep, slot_end);
    }
  }
}

TEST(Partition, TimeSlotsMoreImbalancedUnderRushHours) {
  // The paper's §3.2 observation: departures cluster in rush hours, so
  // equal time slots are worse balanced than equal connection counts.
  Timetable tt = test::small_city(43);
  auto conns = tt.outgoing(5);
  auto slots = partition_connections(
      conns, 4, PartitionStrategy::kEqualTimeSlots, tt.period());
  auto counts = partition_connections(
      conns, 4, PartitionStrategy::kEqualConnections, tt.period());
  EXPECT_GT(partition_imbalance(slots), partition_imbalance(counts));
}

TEST(Partition, KMeansValidAndNoWorseThanTimeSlots) {
  Timetable tt = test::small_city(45);
  for (StationId s : {StationId{0}, StationId{7}, StationId{13}}) {
    auto conns = tt.outgoing(s);
    for (unsigned p : {2u, 4u, 8u}) {
      auto km = partition_connections(conns, p, PartitionStrategy::kKMeans,
                                      tt.period());
      ASSERT_EQ(km.size(), p + 1);
      EXPECT_EQ(km.front(), 0u);
      EXPECT_EQ(km.back(), conns.size());
      for (unsigned k = 0; k < p; ++k) EXPECT_LE(km[k], km[k + 1]);
      auto slots = partition_connections(
          conns, p, PartitionStrategy::kEqualTimeSlots, tt.period());
      // Lloyd's refinement starts from the equal-count split, so it never
      // degrades below the naive time-slot split on rush-hour inputs.
      EXPECT_LE(partition_imbalance(km), partition_imbalance(slots) + 0.25);
    }
  }
}

TEST(Partition, KMeansParallelEquivalence) {
  Rng rng(46);
  Timetable tt = test::random_timetable(rng, 10, 14, 7);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions serial, km;
  serial.threads = 1;
  km.threads = 3;
  km.partition = PartitionStrategy::kKMeans;
  ParallelSpcs a(tt, g, serial), b(tt, g, km);
  OneToAllResult ra = a.one_to_all(2);
  OneToAllResult rb = b.one_to_all(2);
  for (StationId t = 0; t < tt.num_stations(); ++t) {
    ASSERT_EQ(ra.profiles[t], rb.profiles[t]);
  }
}

TEST(Partition, EmptyConnSet) {
  auto b = partition_connections({}, 4, PartitionStrategy::kEqualConnections,
                                 kDayseconds);
  EXPECT_EQ(b, (std::vector<std::uint32_t>{0, 0, 0, 0, 0}));
  EXPECT_DOUBLE_EQ(partition_imbalance(b), 1.0);
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, PartitionStrategy>> {
};

TEST_P(ParallelEquivalence, MatchesSerialProfiles) {
  auto [threads, strategy] = GetParam();
  Rng rng(1000 + threads);
  Timetable tt = test::random_timetable(rng, 10, 14, 7);
  TdGraph g = TdGraph::build(tt);

  ParallelSpcsOptions serial;
  serial.threads = 1;
  ParallelSpcsOptions par;
  par.threads = threads;
  par.partition = strategy;

  ParallelSpcs a(tt, g, serial), b(tt, g, par);
  for (StationId src : {StationId{0}, StationId{4}, StationId{9}}) {
    OneToAllResult ra = a.one_to_all(src);
    OneToAllResult rb = b.one_to_all(src);
    for (StationId t = 0; t < tt.num_stations(); ++t) {
      ASSERT_EQ(ra.profiles[t], rb.profiles[t])
          << "threads=" << threads << " src=" << src << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndStrategies, ParallelEquivalence,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 7u),
                       ::testing::Values(PartitionStrategy::kEqualConnections,
                                         PartitionStrategy::kEqualTimeSlots)));

TEST(ParallelSpcs, MoreThreadsSettleAtLeastAsManyConnections) {
  // Cross-thread self-pruning is impossible, so total settled work grows
  // (slightly) with the thread count — the paper's §3.2 discussion.
  Timetable tt = test::small_city(44);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o1, o4;
  o1.threads = 1;
  o4.threads = 4;
  ParallelSpcs a(tt, g, o1), b(tt, g, o4);
  OneToAllResult r1 = a.one_to_all(7);
  OneToAllResult r4 = b.one_to_all(7);
  EXPECT_GE(r4.stats.settled, r1.stats.settled);
  for (StationId t = 0; t < tt.num_stations(); ++t) {
    EXPECT_EQ(r1.profiles[t], r4.profiles[t]);
  }
}

TEST(ParallelSpcs, DegenerateOneConnectionPerThread) {
  // p >= |conn(S)|: every thread runs a plain per-connection time query —
  // the paper's extreme case where self-pruning vanishes entirely.
  TimetableBuilder bld;
  StationId a = bld.add_station("A", 30);
  StationId c = bld.add_station("B", 30);
  using St = TimetableBuilder::StopTime;
  bld.add_trip(std::vector<St>{{a, 0, 1000}, {c, 1600, 0}});
  bld.add_trip(std::vector<St>{{a, 0, 2000}, {c, 2600, 0}});
  Timetable tt = bld.finalize();
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o;
  o.threads = 4;  // more threads than connections
  ParallelSpcs spcs(tt, g, o);
  OneToAllResult res = spcs.one_to_all(a);
  ASSERT_EQ(res.profiles[c].size(), 2u);
  EXPECT_EQ(res.profiles[c][0], (ProfilePoint{1000, 1600}));
  EXPECT_EQ(res.profiles[c][1], (ProfilePoint{2000, 2600}));
}

TEST(ParallelSpcs, StationToStationParallelMatchesSerial) {
  Timetable tt = test::small_railway(45);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o1, o3;
  o1.threads = 1;
  o3.threads = 3;
  ParallelSpcs a(tt, g, o1), b(tt, g, o3);
  Rng rng(46);
  for (int trial = 0; trial < 10; ++trial) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationQueryResult ra = a.station_to_station(s, t);
    StationQueryResult rb = b.station_to_station(s, t);
    test::expect_same_function(ra.profile, rb.profile, tt.period(),
                               "parallel s2s");
  }
}

TEST(ParallelSpcs, ThreadTimesReported) {
  Timetable tt = test::small_city(47);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions o;
  o.threads = 2;
  ParallelSpcs spcs(tt, g, o);
  OneToAllResult res = spcs.one_to_all(1);
  EXPECT_GE(res.max_thread_ms, res.min_thread_ms);
  EXPECT_GE(res.stats.time_ms, 0.0);
}

// A task throwing on a worker thread must neither terminate the process
// (std::thread unwinding) nor wedge the fork-join barrier: the first
// exception is rethrown on the calling thread and the pool stays usable —
// the property the live-update rebuild pipeline's degradation relies on.
TEST(ThreadPool, WorkerExceptionRethrownAtJoinAndPoolSurvives) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    FaultInjector faults;
    faults.arm(FaultInjector::Site::kContractionWorker, threads / 2);

    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(pool.run([&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
      faults.check(FaultInjector::Site::kContractionWorker);
    }),
                 InjectedFault);
    // The barrier completed: every lane entered the task exactly once.
    EXPECT_EQ(ran.load(), pool.num_threads());
    EXPECT_EQ(faults.fired(), 1u);

    // The pool is fully reusable after the failed run.
    std::atomic<std::size_t> again{0};
    pool.run([&](std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), pool.num_threads());
  }
}

// Concurrent faults on every lane: exactly one propagates, the rest are
// swallowed, nothing deadlocks.
TEST(ThreadPool, FirstOfManyConcurrentExceptionsPropagates) {
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    EXPECT_THROW(
        pool.run([&](std::size_t t) { throw std::runtime_error(
            "lane " + std::to_string(t)); }),
        std::runtime_error);
  }
  std::atomic<std::size_t> ran{0};
  pool.run([&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), pool.num_threads());
}

// The allocation-failure kind surfaces as std::bad_alloc, distinct from
// InjectedFault — the live pipeline treats both as degradation triggers.
TEST(ThreadPool, BadAllocKindPropagatesAsBadAlloc) {
  ThreadPool pool(2);
  FaultInjector faults;
  faults.arm(FaultInjector::Site::kPoolAppend, 0,
             FaultInjector::Kind::kBadAlloc);
  EXPECT_THROW(pool.run([&](std::size_t) {
    faults.check(FaultInjector::Site::kPoolAppend);
  }),
               std::bad_alloc);
}

// --- spin-then-park -------------------------------------------------------
//
// Idle workers spin for a short window (0.5 ms) before they park on the
// condition variable, and run() spins on the unfinished lanes the same way
// before it waits. Back-to-back runs stay on the spinning path; sleeps of
// kPastSpin put every thread on the parked path.

constexpr auto kPastSpin = std::chrono::milliseconds(5);

TEST(ThreadPool, BackToBackRunsCountEveryTaskOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<std::uint64_t>> per_lane(pool.num_threads());
  std::uint64_t short_runs = 0;
  for (int r = 0; r < 10000; ++r) {
    std::atomic<std::size_t> ran{0};
    pool.run([&](std::size_t t) {
      per_lane[t].fetch_add(1, std::memory_order_relaxed);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    if (ran.load() != pool.num_threads()) ++short_runs;
  }
  EXPECT_EQ(short_runs, 0u);
  for (std::size_t t = 0; t < pool.num_threads(); ++t) {
    EXPECT_EQ(per_lane[t].load(), 10000u) << "lane " << t;
  }
}

TEST(ThreadPool, RunsAfterIdleSleepsUseTheParkedPath) {
  ThreadPool pool(3);
  std::vector<std::uint64_t> per_lane(pool.num_threads(), 0);
  for (std::size_t r = 0; r < 8; ++r) {
    std::this_thread::sleep_for(kPastSpin);  // every worker parks
    // One worker outlasts the spin window, so run() parks on it too.
    const std::size_t slow = 1 + r % (pool.num_threads() - 1);
    pool.run([&](std::size_t t) {
      if (t == slow) std::this_thread::sleep_for(kPastSpin);
      ++per_lane[t];  // each lane writes only its own slot
    });
  }
  for (std::size_t t = 0; t < pool.num_threads(); ++t) {
    EXPECT_EQ(per_lane[t], 8u) << "lane " << t;
  }
}

TEST(ThreadPool, ExceptionRethrownOnSpinningAndParkedPaths) {
  ThreadPool pool(4);
  const auto throw_from = [&](std::size_t lane, bool park) {
    if (park) std::this_thread::sleep_for(kPastSpin);
    try {
      pool.run([&](std::size_t t) {
        if (t != lane) return;
        if (park) std::this_thread::sleep_for(kPastSpin);
        throw std::runtime_error("lane " + std::to_string(t));
      });
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("nothing thrown");
  };
  for (const bool park : {false, true}) {
    for (std::size_t lane = 0; lane < pool.num_threads(); ++lane) {
      EXPECT_EQ(throw_from(lane, park), "lane " + std::to_string(lane))
          << (park ? "parked" : "spinning") << " path";
      std::atomic<std::size_t> ran{0};
      pool.run([&](std::size_t) { ran.fetch_add(1); });
      EXPECT_EQ(ran.load(), pool.num_threads());
    }
  }
}

TEST(ThreadPool, DestroyedWhileWorkersSpinOrPark) {
  for (int i = 0; i < 50; ++i) {
    ThreadPool fresh(4);  // destroyed in its workers' first spin
  }
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
    std::atomic<std::size_t> ran{0};
    pool.run([&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4u);
  }  // destroyed while the workers spin after the run
  for (int i = 0; i < 3; ++i) {
    ThreadPool pool(4);
    pool.run([](std::size_t) {});
    std::this_thread::sleep_for(kPastSpin);
  }  // destroyed while the workers are parked
}

TEST(ThreadPool, EveryThreadOnOneCpu) {
  // Workers created on the caller's CPU and unable to leave it: they park
  // instead of spinning beside the caller, and every run still completes.
  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(::sched_getcpu(), &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
  {
    ThreadPool pool(4);  // workers inherit the one-CPU mask
    std::vector<std::uint64_t> per_lane(pool.num_threads(), 0);
    for (int r = 0; r < 500; ++r) {
      pool.run([&](std::size_t t) { ++per_lane[t]; });
    }
    for (std::size_t t = 0; t < pool.num_threads(); ++t) {
      EXPECT_EQ(per_lane[t], 500u) << "lane " << t;
    }
  }
  ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
}

TEST(ThreadPool, MoreThreadsThanClaimedItems) {
  // The contraction's claim loop with fewer work items than threads: the
  // extra lanes claim nothing and the round still completes.
  ThreadPool pool(8);
  for (std::size_t items = 0; items < 12; ++items) {
    std::vector<std::atomic<int>> done(items);
    std::atomic<std::size_t> next{0};
    pool.run([&](std::size_t) {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= items) break;
        done[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < items; ++i) {
      EXPECT_EQ(done[i].load(), 1) << items << " items, item " << i;
    }
  }
}

}  // namespace
}  // namespace pconn
