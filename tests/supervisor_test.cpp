// Chaos harness for the shard supervisor (src/supervisor/,
// docs/server.md "Sharding & supervision"):
//  * a healthy fleet serves responses byte-identical to a direct session
//    over the same snapshot, whose answers match the connection-scan
//    ground truth (tests/connection_scan.hpp), and drains cleanly on
//    request;
//  * SIGKILLing a shard under sustained load loses only that shard's
//    connections — clients reconnect within the recovery deadline, every
//    COMPLETED response stays value-identical to the oracle, and the
//    fleet returns to full health;
//  * a shard that stops heartbeating (SIGSTOP) is detected as hung,
//    SIGKILLed, and restarted;
//  * a crash-looping shard (kShardCrash firing every incarnation) is held
//    down after K deaths and its listener released;
//  * a config-fatal shard (kSnapshotMap => kShardExitSnapshotFatal) is
//    held down immediately, without burning K restarts;
//  * fleet drain (direct call and via install_drain_signal) exits every
//    shard cleanly within the deadline.
//
// Shards run the real pconn_shardd binary (built next to this test);
// faults are injected inside the shard via its --fault-* flags
// (util/fault_injector.hpp sites kShardCrash / kShardHang / kSnapshotMap).
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algo/contraction.hpp"
#include "connection_scan.hpp"
#include "graph/td_graph.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "supervisor/supervisor.hpp"
#include "test_util.hpp"
#include "timetable/snapshot.hpp"

namespace pconn {
namespace {

constexpr const char* kHost = "127.0.0.1";

/// Writes a snapshot of `tt` (with its contraction overlay unless
/// `with_overlay` is false) to a unique temp file; removed on destruction.
struct SnapshotFile {
  explicit SnapshotFile(const Timetable& tt, bool with_overlay = true) {
    static std::atomic<int> counter{0};
    path = "supervisor_snap_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".pcsn";
    if (with_overlay) {
      TdGraph g = TdGraph::build(tt);
      const OverlayGraph ov = contract_graph(tt, g);
      save_snapshot(tt, &ov, path);
    } else {
      save_snapshot(tt, nullptr, path);
    }
  }
  ~SnapshotFile() { std::remove(path.c_str()); }
  std::string path;
};

SupervisorOptions fast_sup(const std::string& snapshot) {
  SupervisorOptions o;
  o.host = kHost;
  o.snapshot_path = snapshot;
  o.shards = 2;
  o.shard_workers = 1;
  o.heartbeat_interval_ms = 10.0;
  o.heartbeat_timeout_ms = 500.0;
  o.restart_backoff_ms = 10.0;
  o.restart_backoff_cap_ms = 100.0;
  o.crash_loop_deaths = 3;
  o.crash_loop_window_ms = 5'000.0;
  o.hold_down_ms = 20'000.0;  // long: tests observe the held state
  o.drain_deadline_ms = 5'000.0;
  return o;
}

bool wait_for(double timeout_ms, const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

}  // namespace

TEST(Supervisor, FleetServesByteIdenticalAndDrainsCleanly) {
  const Timetable tt = test::tiny_line();
  SnapshotFile snap(tt);
  ShardSupervisor sup(fast_sup(snap.path));
  sup.start();
  ASSERT_TRUE(sup.wait_healthy(2, 10'000.0));

  // Oracle: load the SAME snapshot the shards map, the same way they do;
  // its answers are checked against the connection-scan ground truth.
  MappedSnapshot mapped(snap.path);
  LiveOverlay live(mapped.load_timetable(), mapped.load_overlay());
  LiveQuerySession direct(live);
  const test::ConnectionScan scan(tt);

  // Several connections so both shards likely serve some of them; every
  // response must be byte-identical to the locally encoded oracle frame.
  for (int conn = 0; conn < 6; ++conn) {
    BlockingClient client(kHost, sup.port());
    std::uint32_t req_id = 1000 + 100 * conn;
    for (StationId s = 0; s < 3; ++s) {
      for (StationId t = 0; t < 3; ++t) {
        if (s == t) continue;
        ++req_id;
        const Time dep = 8 * 3600;
        const Time arr = direct.earliest_arrival(s, dep, t);
        ASSERT_EQ(arr, scan.earliest_arrivals(s, dep, t)[t])
            << "ea " << s << "->" << t;
        ResponseHeader h;
        h.status = Status::kOk;
        h.opcode = Opcode::kEarliestArrival;
        h.req_id = req_id;
        h.epoch = direct.epoch();
        h.degraded = direct.serving_degraded();
        ASSERT_TRUE(
            client.send_raw(encode_earliest_arrival(req_id, s, dep, t)));
        auto payload = client.recv_frame();
        ASSERT_TRUE(payload.has_value()) << client_error_name(
            client.last_error());
        EXPECT_EQ(*payload, encode_ea_response(h, arr).substr(4))
            << "conn " << conn << " ea " << s << "->" << t;
      }
    }
  }

  sup.stop();
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.spawns, 2u);
  EXPECT_EQ(st.drained_ok, 2u);
  EXPECT_EQ(st.crashes, 0u);
  EXPECT_EQ(st.restarts, 0u);
  EXPECT_EQ(sup.shard_state(0), ShardState::kStopped);
  EXPECT_EQ(sup.shard_state(1), ShardState::kStopped);
}

TEST(Supervisor, SnapshotWithoutOverlayContractsAtStartup) {
  const Timetable tt = test::tiny_line();
  SnapshotFile snap(tt, /*with_overlay=*/false);
  SupervisorOptions o = fast_sup(snap.path);
  o.shards = 1;
  ShardSupervisor sup(o);
  sup.start();
  ASSERT_TRUE(sup.wait_healthy(1, 15'000.0));
  RetryingClient client(kHost, sup.port());
  auto r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  sup.stop();
}

TEST(Supervisor, KilledShardRestartsAndClientsRecoverUnderLoad) {
  const Timetable tt = test::tiny_line();
  SnapshotFile snap(tt);
  SupervisorOptions o = fast_sup(snap.path);
  o.log = true;
  ShardSupervisor sup(o);
  sup.start();
  ASSERT_TRUE(sup.wait_healthy(2, 10'000.0));

  // Oracle answers for the query mix, precomputed from a direct session
  // and checked against the connection-scan ground truth.
  MappedSnapshot mapped(snap.path);
  LiveOverlay live(mapped.load_timetable(), mapped.load_overlay());
  LiveQuerySession direct(live);
  const test::ConnectionScan scan(tt);
  struct Case {
    StationId s, t;
    Time dep, arr;
  };
  std::vector<Case> cases;
  for (StationId s = 0; s < 3; ++s) {
    for (StationId t = 0; t < 3; ++t) {
      if (s == t) continue;
      for (const Time dep : {Time{0}, Time{8 * 3600}, Time{10 * 3600}}) {
        cases.push_back({s, t, dep, direct.earliest_arrival(s, dep, t)});
        ASSERT_EQ(cases.back().arr, scan.earliest_arrivals(s, dep, t)[t])
            << "ea " << s << "->" << t << " @" << dep;
      }
    }
  }

  // Sustained load: client threads hammer the fleet through
  // RetryingClient (reconnect + Retry-After are the things under test).
  // A completed response that disagrees with the oracle — wrong arrival,
  // wrong epoch, degraded flag set — is corruption; a failed call during
  // the kill window is expected and retried by the NEXT iteration.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0}, corrupt{0}, gave_up{0};
  auto client_loop = [&](std::uint64_t seed) {
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.backoff_ms = 5.0;
    policy.backoff_cap_ms = 100.0;
    policy.seed = seed;
    RetryingClient client(kHost, sup.port(), policy, 2'000.0);
    std::size_t i = seed % cases.size();
    while (!stop.load(std::memory_order_acquire)) {
      const Case& c = cases[i];
      i = (i + 1) % cases.size();
      auto r = client.earliest_arrival(c.s, c.dep, c.t);
      if (!r.has_value()) {
        ++gave_up;
        continue;
      }
      ++completed;
      if (r->header.status != Status::kOk || r->arrival != c.arr ||
          r->header.epoch != 0 || r->header.degraded != 0) {
        ++corrupt;
      }
    }
  };
  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < 4; ++c) {
    clients.emplace_back(client_loop, 1000 + c);
  }

  // Let the fleet take load, then SIGKILL shard 0 mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const pid_t victim = sup.shard_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // Recovery deadline: a NEW shard-0 incarnation is up and the fleet is
  // back to full health within 5 s (generous for CI; the backoff
  // schedule predicts tens of ms). The pid check matters: right after
  // the kill, the supervisor has not reaped the death yet and still
  // counts the victim as healthy.
  EXPECT_TRUE(wait_for(5'000.0, [&] {
    return sup.shard_pid(0) > 0 && sup.shard_pid(0) != victim &&
           sup.healthy_shards() == 2;
  }));
  EXPECT_NE(sup.shard_pid(0), victim);

  // Keep load running against the recovered fleet before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  // After recovery, every client must be able to complete a fresh call.
  for (std::uint64_t c = 0; c < 4; ++c) {
    RetryingClient check(kHost, sup.port());
    auto r = check.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value()) << client_error_name(check.last_error());
    EXPECT_EQ(r->header.status, Status::kOk);
    EXPECT_EQ(r->arrival, scan.earliest_arrivals(0, 8 * 3600, 2)[2]);
  }

  sup.stop();
  const SupervisorStats st = sup.stats();
  EXPECT_GE(st.crashes, 1u);
  EXPECT_GE(st.restarts, 1u);
  EXPECT_GE(st.spawns, 3u);
  EXPECT_EQ(st.hold_downs, 0u);
}

TEST(Supervisor, HungShardIsKilledAndRestarted) {
  const Timetable tt = test::tiny_line();
  SnapshotFile snap(tt);
  SupervisorOptions o = fast_sup(snap.path);
  o.shards = 1;
  o.heartbeat_timeout_ms = 250.0;
  // ~20 beats in, the shard SIGSTOPs itself: alive but silent.
  o.shard_extra_args = {"--fault-hang-after=20"};
  ShardSupervisor sup(o);
  sup.start();
  ASSERT_TRUE(sup.wait_healthy(1, 10'000.0));

  // The hung-shard ladder must fire: a SIGKILL (counted separately from
  // crashes) followed by a restart.
  EXPECT_TRUE(wait_for(10'000.0, [&] {
    const SupervisorStats st = sup.stats();
    return st.hung_kills >= 1 && st.restarts >= 1;
  }));
  const SupervisorStats st = sup.stats();
  EXPECT_GE(st.hung_kills, 1u);
  EXPECT_GE(st.restarts, 1u);
  sup.stop();
}

TEST(Supervisor, CrashLoopIsHeldDownAndListenerReleased) {
  const Timetable tt = test::tiny_line();
  SnapshotFile snap(tt);
  SupervisorOptions o = fast_sup(snap.path);
  o.shards = 1;
  // Every incarnation crashes ~5 heartbeats (~50 ms) after becoming
  // ready: 3 deaths inside the 5 s window => hold-down.
  o.shard_extra_args = {"--fault-crash-after=5"};
  ShardSupervisor sup(o);
  sup.start();

  EXPECT_TRUE(
      wait_for(15'000.0, [&] { return sup.stats().hold_downs >= 1; }));
  const SupervisorStats st = sup.stats();
  EXPECT_GE(st.crashes, 3u);
  EXPECT_EQ(sup.shard_state(0), ShardState::kHeldDown);
  // The held shard's listener was closed: with no other shard on the
  // port, a connect must now be refused instead of queueing forever.
  EXPECT_THROW(BlockingClient(kHost, sup.port(), 1'000.0),
               std::runtime_error);
  sup.stop();
}

TEST(Supervisor, SnapshotFatalExitHeldDownImmediately) {
  const Timetable tt = test::tiny_line();
  SnapshotFile snap(tt);
  SupervisorOptions o = fast_sup(snap.path);
  o.shards = 1;
  // The shard's own MappedSnapshot fault site fires: it exits with
  // kShardExitSnapshotFatal before ever serving.
  o.shard_extra_args = {"--fault-snapshot-map"};
  ShardSupervisor sup(o);
  sup.start();

  EXPECT_TRUE(
      wait_for(10'000.0, [&] { return sup.stats().snapshot_fatal >= 1; }));
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.snapshot_fatal, 1u);
  EXPECT_GE(st.hold_downs, 1u);
  // Immediately: ONE death was enough — no K-death crash-loop grace.
  EXPECT_EQ(st.deaths, 1u);
  EXPECT_EQ(st.restarts, 0u);
  EXPECT_EQ(sup.shard_state(0), ShardState::kHeldDown);
  sup.stop();
}

TEST(Supervisor, InstalledSignalDrainsFleet) {
  const Timetable tt = test::tiny_line();
  SnapshotFile snap(tt);
  ShardSupervisor sup(fast_sup(snap.path));
  sup.start();
  ASSERT_TRUE(sup.wait_healthy(2, 10'000.0));
  sup.install_drain_signal(SIGUSR2);
  ASSERT_EQ(::raise(SIGUSR2), 0);
  sup.wait();
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.drained_ok, 2u);
  EXPECT_EQ(sup.healthy_shards(), 0u);
}

}  // namespace pconn
