// Chaos benchmark for the supervised multi-process fleet
// (src/supervisor/, docs/server.md "Sharding & supervision").
//
// Phases:
//   identity      raw-socket responses from the fleet must be
//                 byte-identical to direct LiveQuerySession answers over
//                 the SAME mapped snapshot — checked BEFORE any timing;
//   baseline      closed-loop client threads against the healthy fleet:
//                 sustained QPS;
//   chaos         the same load keeps running while shard 0 is SIGKILLed
//                 mid-flight; measures the recovery time (new incarnation
//                 spawned, heartbeating, fleet back to full health) and
//                 counts corrupt responses (any completed answer that
//                 disagrees with the oracle — wrong arrival, wrong epoch,
//                 degraded flag) — the count must be ZERO: a crash may
//                 cost a connection, never an answer;
//   recovered     baseline re-measured against the restarted fleet.
//
// Each shard's memory (Pss and Private_* from /proc/<pid>/smaps_rollup)
// is sampled once the fleet is warm and again after recovery, and
// reported ungated: shards adopt the mapped snapshot in place, so its
// pages are shared (Pss splits them across every process mapping the
// file, this one's oracle included) and the private share stays what one
// shard needs on its own. A final sweep starts fresh fleets of 1, 2 and 4
// shards over the same file and samples each shard after a short load of
// two client threads per shard: Pss falls with N, Private_Dirty should
// stay flat in N (a one-shard fleet maps the file alone, so its clean file
// pages show up as Private_Clean).
//
// Emits BENCH_shard.json (--json=FILE); CI gates on identity_match,
// recovery_ms <= recovery_deadline_ms, corrupt_responses == 0, and
// throughput_ratio >= 0.9 (--smoke).
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/contraction.hpp"
#include "bench_common.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "supervisor/supervisor.hpp"
#include "timetable/snapshot.hpp"

namespace pconn::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kHost = "127.0.0.1";

struct Case {
  StationId s, t;
  Time dep, arr;
};

/// Pre-timing gate: raw frames from the fleet vs direct-session answers
/// over the same snapshot, byte for byte.
bool check_identity(const LiveOverlay& live, std::uint16_t port,
                    const std::vector<Case>& cases) {
  LiveQuerySession direct(live);
  BlockingClient client(kHost, port);
  std::uint32_t req_id = 1;
  for (const Case& c : cases) {
    ++req_id;
    ResponseHeader h;
    h.status = Status::kOk;
    h.opcode = Opcode::kEarliestArrival;
    h.req_id = req_id;
    h.epoch = direct.epoch();
    h.degraded = direct.serving_degraded();
    const Time arr = direct.earliest_arrival(c.s, c.dep, c.t);
    if (!client.send_raw(encode_earliest_arrival(req_id, c.s, c.dep, c.t))) {
      return false;
    }
    auto payload = client.recv_frame();
    if (!payload.has_value()) return false;
    if (*payload != encode_ea_response(h, arr).substr(4)) return false;
  }
  return true;
}

/// One shard's smaps_rollup memory, in kB, in a fleet of `shards`.
struct ShardMemory {
  const char* phase = "";
  unsigned shards = 0;
  unsigned shard = 0;
  std::uint64_t pss_kb = 0, private_clean_kb = 0, private_dirty_kb = 0;
};

ShardMemory read_shard_memory(const char* phase, unsigned shards,
                              unsigned shard, pid_t pid) {
  ShardMemory m{phase, shards, shard};
  std::ifstream in("/proc/" + std::to_string(pid) + "/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    std::uint64_t kb = 0;
    if (!(fields >> key >> kb)) continue;
    if (key == "Pss:") m.pss_kb = kb;
    if (key == "Private_Clean:") m.private_clean_kb = kb;
    if (key == "Private_Dirty:") m.private_dirty_kb = kb;
  }
  return m;
}

struct LoadResult {
  std::uint64_t completed = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t gave_up = 0;
  double qps = 0.0;
};

/// Closed-loop load from `threads` RetryingClients for `duration_ms`.
/// Every completed response is checked against the oracle case.
LoadResult run_load(std::uint16_t port, const std::vector<Case>& cases,
                    double duration_ms, unsigned threads,
                    std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0}, corrupt{0}, gave_up{0};
  auto loop = [&](std::uint64_t client_seed) {
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.backoff_ms = 5.0;
    policy.backoff_cap_ms = 100.0;
    policy.seed = client_seed;
    RetryingClient client(kHost, port, policy, 2'000.0);
    std::size_t i = client_seed % cases.size();
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
  std::vector<std::thread> workers;
  const Clock::time_point t0 = Clock::now();
  for (unsigned c = 0; c < threads; ++c) {
    workers.emplace_back(loop, seed + c);
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(duration_ms));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  LoadResult out;
  out.completed = completed.load();
  out.corrupt = corrupt.load();
  out.gave_up = gave_up.load();
  out.qps = elapsed_s > 0 ? static_cast<double>(out.completed) / elapsed_s
                          : 0.0;
  return out;
}

int run(int argc, char** argv) {
  parse_bench_args(argc, argv);
  const Network net = load_network(gen::Preset::kOahuLike);
  print_network_header(net);

  // Snapshot the network + overlay once; every shard maps this file.
  const std::string snapshot_path =
      "bench_shard_" + std::to_string(::getpid()) + ".pcsn";
  {
    const OverlayGraph ov = contract_graph(net.tt, net.graph);
    save_snapshot(net.tt, &ov, snapshot_path);
    // Write the file back before any shard maps it: page-cache pages that
    // are still dirty count as Private_Dirty of a shard that maps them
    // alone, which would charge the whole file to a one-shard fleet.
    const int fd = ::open(snapshot_path.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }

  const unsigned shard_workers =
      std::max(1u, std::min(2u, std::thread::hardware_concurrency() / 2));
  const unsigned load_threads = 4;
  const double window_ms = options().smoke ? 800.0 : 2'000.0;
  const double recovery_deadline_ms = 5'000.0;

  SupervisorOptions sopt;
  sopt.host = kHost;
  sopt.shards = 2;
  sopt.shard_workers = shard_workers;
  sopt.snapshot_path = snapshot_path;
  sopt.heartbeat_interval_ms = 10.0;
  sopt.heartbeat_timeout_ms = 1'000.0;
  sopt.restart_backoff_ms = 10.0;
  sopt.restart_backoff_cap_ms = 200.0;
  ShardSupervisor sup(sopt);
  sup.start();
  int exit_code = 0;
  bool identity = false;
  double recovery_ms = -1.0;
  LoadResult base, chaos, post;
  SupervisorStats st;
  std::vector<ShardMemory> memory, sweep;
  const auto sample_memory = [&](const char* phase, ShardSupervisor& fleet,
                                 unsigned shards,
                                 std::vector<ShardMemory>& into) {
    for (unsigned i = 0; i < shards; ++i) {
      into.push_back(read_shard_memory(phase, shards, i, fleet.shard_pid(i)));
      const ShardMemory& m = into.back();
      std::cout << "shard " << i << "/" << shards << " memory (" << phase
                << "): Pss " << m.pss_kb << " kB, Private_Clean "
                << m.private_clean_kb << " kB, Private_Dirty "
                << m.private_dirty_kb << " kB\n";
    }
  };
  std::vector<Case> cases;

  if (!sup.wait_healthy(2, 15'000.0)) {
    std::cerr << "fleet did not become healthy\n";
    exit_code = 1;
  } else {
    // Oracle over the SAME snapshot the shards map, loaded the same way.
    MappedSnapshot mapped(snapshot_path);
    LiveOverlay live(mapped.load_timetable(), mapped.load_overlay());
    LiveQuerySession direct(live);
    Rng rng(4242);
    const int num_cases = std::max(16, num_queries());
    for (int i = 0; i < num_cases; ++i) {
      Case c;
      c.s = static_cast<StationId>(rng.next_below(net.tt.num_stations()));
      c.t = static_cast<StationId>(rng.next_below(net.tt.num_stations()));
      c.dep = static_cast<Time>(rng.next_below(net.tt.period()));
      c.arr = direct.earliest_arrival(c.s, c.dep, c.t);
      cases.push_back(c);
    }

    identity = check_identity(live, sup.port(), cases);
    std::cout << "identity (fleet vs direct session): "
              << (identity ? "byte-identical" : "MISMATCH") << "\n";
    sample_memory("warm", sup, sopt.shards, memory);

    // --- baseline ------------------------------------------------------
    (void)run_load(sup.port(), cases, window_ms / 4, load_threads, 77);
    base = run_load(sup.port(), cases, window_ms, load_threads, 100);
    std::cout << "baseline: " << static_cast<std::uint64_t>(base.qps)
              << " qps over " << base.completed << " requests\n";

    // --- chaos: SIGKILL shard 0 under sustained load -------------------
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0}, corrupt{0}, gave_up{0};
    std::vector<std::thread> loaders;
    for (unsigned c = 0; c < load_threads; ++c) {
      loaders.emplace_back([&, c] {
        RetryPolicy policy;
        policy.max_attempts = 8;
        policy.backoff_ms = 5.0;
        policy.backoff_cap_ms = 100.0;
        policy.seed = 900 + c;
        RetryingClient client(kHost, sup.port(), policy, 2'000.0);
        std::size_t i = c % cases.size();
        while (!stop.load(std::memory_order_acquire)) {
          const Case& cs = cases[i];
          i = (i + 1) % cases.size();
          auto r = client.earliest_arrival(cs.s, cs.dep, cs.t);
          if (!r.has_value()) {
            ++gave_up;
            continue;
          }
          ++completed;
          if (r->header.status != Status::kOk || r->arrival != cs.arr ||
              r->header.epoch != 0 || r->header.degraded != 0) {
            ++corrupt;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const pid_t victim = sup.shard_pid(0);
    const Clock::time_point kill_at = Clock::now();
    if (victim > 0) ::kill(victim, SIGKILL);
    while (recovery_ms < 0.0) {
      const pid_t now_pid = sup.shard_pid(0);
      if (now_pid > 0 && now_pid != victim && sup.healthy_shards() == 2) {
        recovery_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - kill_at)
                          .count();
        break;
      }
      if (std::chrono::duration<double, std::milli>(Clock::now() - kill_at)
              .count() > 4 * recovery_deadline_ms) {
        break;  // recovery_ms stays -1: gate fails below
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(window_ms / 4));
    stop.store(true, std::memory_order_release);
    for (std::thread& t : loaders) t.join();
    chaos.completed = completed.load();
    chaos.corrupt = corrupt.load();
    chaos.gave_up = gave_up.load();
    std::cout << "chaos: recovery " << (recovery_ms < 0 ? -1 : recovery_ms)
              << " ms, " << chaos.completed << " completed, "
              << chaos.corrupt << " corrupt, " << chaos.gave_up
              << " exhausted retries\n";

    // --- post-recovery throughput -------------------------------------
    post = run_load(sup.port(), cases, window_ms, load_threads, 200);
    std::cout << "post-recovery: " << static_cast<std::uint64_t>(post.qps)
              << " qps over " << post.completed << " requests\n";
    sample_memory("recovered", sup, sopt.shards, memory);
  }

  sup.stop();
  st = sup.stats();

  // --- per-shard memory across fleet sizes (ungated) -------------------
  if (exit_code == 0) {
    for (const unsigned shards : {1u, 2u, 4u}) {
      SupervisorOptions fopt = sopt;
      fopt.shards = shards;
      ShardSupervisor fleet(fopt);
      fleet.start();
      if (!fleet.wait_healthy(shards, 15'000.0)) {
        std::cerr << "sweep fleet of " << shards
                  << " did not become healthy; not sampled\n";
      } else {
        (void)run_load(fleet.port(), cases, window_ms / 4,
                       2 * shards, 300 + shards);
        sample_memory("sweep", fleet, shards, sweep);
      }
      fleet.stop();
    }
  }
  std::remove(snapshot_path.c_str());

  const double ratio = base.qps > 0 ? post.qps / base.qps : 0.0;
  const std::uint64_t corrupt_total = base.corrupt + chaos.corrupt +
                                      post.corrupt;
  std::cout << "throughput ratio (post-recovery/baseline): "
            << fixed(ratio, 3) << "\n"
            << "supervisor: " << st.spawns << " spawns, " << st.crashes
            << " crashes, " << st.restarts << " restarts\n";

  if (options().json) {
    JsonWriter w = bench_json_doc("shard", "supervised-fleet-ea");
    w.field("stations", net.tt.num_stations())
        .field("shards", 2)
        .field("shard_workers", shard_workers)
        .field("load_threads", load_threads)
        .field("identity_match", identity)
        .field("baseline_qps", base.qps, 1)
        .field("post_recovery_qps", post.qps, 1)
        .field("throughput_ratio", ratio, 3)
        .field("recovery_ms", recovery_ms, 2)
        .field("recovery_deadline_ms", recovery_deadline_ms, 0)
        .field("corrupt_responses", corrupt_total)
        .field("chaos_completed", chaos.completed)
        .field("chaos_retries_exhausted", chaos.gave_up)
        .field("spawns", st.spawns)
        .field("crashes", st.crashes)
        .field("restarts", st.restarts)
        .field("hung_kills", st.hung_kills)
        .field("hold_downs", st.hold_downs)
        .field("drained_ok", st.drained_ok);
    for (const auto& [key, samples] :
         {std::pair{"shard_memory", &memory}, std::pair{"memory_sweep", &sweep}}) {
      w.key(key).begin_array();
      for (const ShardMemory& m : *samples) {
        w.begin_object()
            .field("phase", m.phase)
            .field("shards", m.shards)
            .field("shard", m.shard)
            .field("pss_kb", m.pss_kb)
            .field("private_clean_kb", m.private_clean_kb)
            .field("private_dirty_kb", m.private_dirty_kb)
            .end_object();
      }
      w.end_array();
    }
    w.end_object();
    emit_json(w.str());
  }

  if (!identity) {
    std::cerr << "GATE: identity mismatch\n";
    exit_code = 1;
  }
  if (recovery_ms < 0 || recovery_ms > recovery_deadline_ms) {
    std::cerr << "GATE: recovery " << recovery_ms << " ms exceeds deadline "
              << recovery_deadline_ms << " ms\n";
    exit_code = 1;
  }
  if (corrupt_total != 0) {
    std::cerr << "GATE: " << corrupt_total << " corrupt responses\n";
    exit_code = 1;
  }
  if (ratio < 0.9) {
    std::cerr << "GATE: post-recovery throughput ratio " << fixed(ratio, 3)
              << " < 0.9\n";
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) { return pconn::bench::run(argc, argv); }
