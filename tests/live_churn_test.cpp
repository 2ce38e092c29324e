// LiveQuerySession under concurrent epoch churn (ISSUE 9 satellite):
// N reader threads hammer warm sessions while a writer publishes, forces
// degradations, and recovers — the RCU contract says readers never block,
// never crash, and stay EXACT:
//  * every answer equals a fresh flat-engine session built on the same
//    pinned snapshot (overlay vs flat identity, per query);
//  * a reader pinned at epoch 0 (auto-refresh off) keeps its epoch alive
//    and byte-stable through the whole churn;
//  * no reader touches LiveOverlay::stats()/failed_attempts() — those are
//    writer-thread state; the test is the TSan witness for the contract.
// Run under TSan in CI (sanitize job); race-free here means the
// QueryServer worker pool (one LiveQuerySession per worker) is too.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "algo/session.hpp"
#include "live/delay_feed.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "test_util.hpp"
#include "util/fault_injector.hpp"

namespace pconn {
namespace {

constexpr int kReaders = 4;
constexpr int kWriterIterations = 40;
constexpr StationId kSource = 0;
constexpr StationId kTarget = 2;

}  // namespace

TEST(LiveChurn, ConcurrentEpochChurnIsRaceFreeAndExact) {
  FaultInjector faults;
  LiveOverlayOptions lopt;
  lopt.faults = &faults;
  lopt.relink.faults = &faults;
  LiveOverlay live(test::tiny_line(), lopt);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> oracle_checks{0};
  std::atomic<std::uint64_t> degraded_seen{0};
  std::atomic<int> failures{0};

  // Epoch-0 pin: manual refresh means this session must keep answering
  // from the retired initial epoch, byte-stable, while the writer churns.
  LiveQuerySession pinned_reader(live);
  pinned_reader.set_auto_refresh(false);
  const Time pinned_baseline =
      pinned_reader.earliest_arrival(kSource, 8 * 3600, kTarget);
  const Profile pinned_profile =
      pinned_reader.station_to_station(kSource, kTarget).profile;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int rd = 0; rd < kReaders; ++rd) {
    readers.emplace_back([&, rd] {
      LiveQuerySession session(live);
      std::uint64_t k = static_cast<std::uint64_t>(rd);
      while (!done.load(std::memory_order_acquire)) {
        const Time dep = static_cast<Time>((k * 977) % (24 * 3600));
        const Time ans = session.earliest_arrival(kSource, dep, kTarget);
        if (session.serving_degraded()) {
          degraded_seen.fetch_add(1, std::memory_order_relaxed);
        }
        if (k % 8 == 0) {
          // Per-query oracle: a cold flat session on the SAME pinned
          // epoch must agree exactly with the warm (possibly
          // overlay-routed) answer.
          const LiveSnapshot& snap = session.pinned();
          QuerySession oracle(*snap.tt, *snap.graph);
          if (oracle.earliest_arrival(kSource, dep, kTarget) != ans) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          oracle_checks.fetch_add(1, std::memory_order_relaxed);
        }
        if (k % 16 == 5) {
          (void)session.station_to_station(kSource, kTarget);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
        ++k;
      }
    });
  }
  std::thread pin_checker([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (pinned_reader.epoch() != 0 ||
          pinned_reader.earliest_arrival(kSource, 8 * 3600, kTarget) !=
              pinned_baseline) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  // Single-writer churn: relinks, forced degradations, recoveries. Only
  // this thread calls apply()/retry() or reads live.stats(). Cumulative
  // delays can eventually push an event past the timetable's validity
  // window — a kRejected there is the subsystem doing its job (serving
  // state untouched), so the writer tolerates it and moves on.
  int degrades = 0, publishes = 0;
  for (int i = 0; i < kWriterIterations; ++i) {
    if (i % 5 == 4) {
      faults.arm(FaultInjector::Site::kRelinkShortcut);
      const ApplyResult r = live.apply(DelayEvent::delayed(0, 1, 300));
      if (r.status == ApplyStatus::kRejected) {
        faults.disarm(FaultInjector::Site::kRelinkShortcut);
      } else {
        ASSERT_EQ(r.status, ApplyStatus::kDegraded) << "iteration " << i;
        std::this_thread::yield();  // let readers see the degraded epoch
        ASSERT_EQ(live.retry().status, ApplyStatus::kRecontracted)
            << "iteration " << i;
        ++degrades;
      }
    } else {
      const ApplyResult r =
          live.apply(DelayEvent::delayed(i % 2, 1 - (i % 2), 120));
      if (r.status != ApplyStatus::kRejected) {
        ASSERT_TRUE(r.status == ApplyStatus::kRelinked ||
                    r.status == ApplyStatus::kRecontracted)
            << "iteration " << i;
        ++publishes;
      }
    }
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  pin_checker.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queries.load(), 0u);
  EXPECT_GT(oracle_checks.load(), 0u);

  // The epoch-0 pin held: same bytes, same epoch, and the overlay still
  // counts the retired epoch as pinned.
  EXPECT_EQ(pinned_reader.epoch(), 0u);
  EXPECT_EQ(pinned_reader.earliest_arrival(kSource, 8 * 3600, kTarget),
            pinned_baseline);
  EXPECT_EQ(pinned_reader.station_to_station(kSource, kTarget).profile,
            pinned_profile);
  EXPECT_GE(live.retired_pinned(), 1u);

  // Writer-side accounting (safe now — churn is over).
  EXPECT_GT(publishes, 0);
  EXPECT_GT(degrades, 0);
  const LiveUpdateStats& stats = live.stats();
  EXPECT_EQ(stats.degradations, static_cast<std::uint64_t>(degrades));
  EXPECT_EQ(stats.recoveries, static_cast<std::uint64_t>(degrades));
  EXPECT_EQ(stats.events_applied,
            static_cast<std::uint64_t>(publishes + degrades));
  EXPECT_FALSE(live.degraded());

  // Post-churn ground truth: the final epoch answers like a from-scratch
  // session on the final timetable.
  LiveQuerySession fresh(live);
  QuerySession oracle(*fresh.pinned().tt, *fresh.pinned().graph);
  for (const Time dep : {Time{0}, Time{8 * 3600}, Time{20 * 3600}}) {
    EXPECT_EQ(fresh.earliest_arrival(kSource, dep, kTarget),
              oracle.earliest_arrival(kSource, dep, kTarget));
  }
}

}  // namespace pconn
