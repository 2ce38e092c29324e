// bench_e2e — the repository's end-to-end benchmark (bench/e2e/README.md).
//
// Untraced, one run of a workload prints the end-to-end metrics (set-up
// time, the share answered correctly, the serving processes' memory) and,
// as context, the EA latency at a fixed open-loop rate and the saturation
// throughput. With --trace=FILE it instead runs the workload window again
// with spans recorded, the cost ladder and the recovery and feed probes,
// prints the per-layer metrics, and writes the spans to FILE as JSON lines.
//
//   bench_e2e [--workload=NAME] [--seed=N] [--seconds=S] [--trace=FILE]
//             [--smoke] [--json=FILE] [--selftest]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ladder.hpp"
#include "loadgen.hpp"
#include "serving.hpp"
#include "stats.hpp"
#include "trace.hpp"

#ifndef PCONN_E2E_BUILD_TYPE
#define PCONN_E2E_BUILD_TYPE "unknown"
#endif

namespace pconn::e2e {
namespace {

using bench::JsonWriter;

struct Options {
  std::string workload;  // empty: every workload in turn
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string json_path;
  bool smoke = false;
  bool selftest = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Order and units of both lists are the contract with BENCHMARK.json.
// EA latency and saturation throughput are not among the end-to-end
// metrics: on a shared VM their ten-seed spread reaches the largest bound
// the format allows (README "End-to-end metrics").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ok_pct", "%"},
    {"rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.network_ms", "ms"},
    {"gen.stations", "count"},
    {"gen.connections", "count"},
    {"timetable.snapshot_save_ms", "ms"},
    {"timetable.snapshot_bytes", "bytes"},
    {"timetable.snapshot_load_ms", "ms"},
    {"graph.build_ms", "ms"},
    {"graph.bytes", "bytes"},
    {"algo.contract_ms", "ms"},
    {"algo.overlay_bytes", "bytes"},
    {"algo.shortcut_points", "count"},
    {"algo.ea_engine_p50_us", "us"},
    {"algo.ea_engine_p99_us", "us"},
    {"algo.session_ea_p50_us", "us"},
    {"algo.ea_settled_mean", "count"},
    {"algo.ea_relaxed_mean", "count"},
    {"algo.ea_stale_pop_ratio", "ratio"},
    {"algo.profile_engine_p50_ms", "ms"},
    {"algo.profile_engine_p99_ms", "ms"},
    {"algo.session_profile_p50_ms", "ms"},
    {"algo.profile_settled_mean", "count"},
    {"algo.profile_self_pruned_ratio", "ratio"},
    {"algo.profile_stop_pruned_ratio", "ratio"},
    {"algo.table1_ms.t1", "ms"},
    {"algo.table1_ms.t2", "ms"},
    {"algo.table1_ms.t4", "ms"},
    {"algo.table1_settled.t1", "count"},
    {"algo.table1_settled.t2", "count"},
    {"algo.table1_settled.t4", "count"},
    {"algo.scratch_bytes_end", "bytes"},
    {"live.session_ea_p50_us", "us"},
    {"live.session_profile_p50_ms", "ms"},
    {"live.apply_ms_p50", "ms"},
    {"live.apply_ms_p90", "ms"},
    {"live.staleness_p50_ms", "ms"},
    {"live.staleness_p90_ms", "ms"},
    {"live.publish_to_answer_ms_p50", "ms"},
    {"live.first_after_publish_us_p50", "us"},
    {"live.relinks", "count"},
    {"live.recontractions", "count"},
    {"live.degradations", "count"},
    {"live.events_rejected", "count"},
    {"live.incremental_share", "ratio"},
    {"live.retired_pinned_max", "count"},
    {"server.rtt_p50_us", "us"},
    {"server.rtt_p99_us", "us"},
    {"server.accepted_p50_us", "us"},
    {"server.accepted_p99_us", "us"},
    {"server.queue_wait_p50_us", "us"},
    {"server.wire_p50_us", "us"},
    {"server.shed", "count"},
    {"server.deadline_expired", "count"},
    {"server.internal", "count"},
    {"server.conn_rejected", "count"},
    {"server.queue_capacity_plan", "count"},
    {"server.max_connections_plan", "count"},
    {"server.per_worker_scratch_bytes", "bytes"},
    {"supervisor.rtt_p50_us", "us"},
    {"supervisor.spawn_to_healthy_ms", "ms"},
    {"supervisor.recovery_ms_p50", "ms"},
    {"supervisor.detect_ms", "ms"},
    {"supervisor.respawn_ms", "ms"},
    {"supervisor.ready_ms", "ms"},
    {"supervisor.shard_pss_mb", "MiB"},
    {"supervisor.shard_private_mb", "MiB"},
    {"supervisor.crashes", "count"},
    {"supervisor.restarts", "count"},
    {"supervisor.hung_kills", "count"},
    {"supervisor.hold_downs", "count"},
    {"load.sent", "count"},
    {"load.ok", "count"},
    {"load.failed.shed", "count"},
    {"load.failed.deadline", "count"},
    {"load.failed.conn", "count"},
    {"load.failed.timeout", "count"},
    {"load.failed.wrong", "count"},
    {"load.resent", "count"},
    {"load.late_p99_ms", "ms"},
    {"load.ea_p50_ms", "ms"},
    {"load.ea_p99_ms", "ms"},
    {"load.max_qps", "req/s"},
    {"load.verified", "count"},
    {"load.tail_ms", "ms"},
    {"load.tail_q", "quantile"},
    {"load.n", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

struct Metric {
  Metric(double v = 0.0, std::size_t samples = 0,
         std::optional<Tail> t = std::nullopt)
      : value(v), n(samples), tail(t) {}
  double value;
  std::size_t n;             // samples behind a quantile, 0 otherwise
  std::optional<Tail> tail;  // printed beside latencies
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  Metrics metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> context;  // numbers that are printed only
};

constexpr double kMaxLateMs = 1.0;
constexpr unsigned kConnections = 4;
// The saturation run keeps 16 requests in flight per connection: every
// worker always has a request queued, so it never idles.
constexpr unsigned kInFlight = 16 * kConnections;
constexpr double kSaturationPoolQps = 25'000.0;  // queries drawn per second
// The window's EA p99 is taken per kWindowSliceNs slice and the saturation
// rate counted per kRateSliceNs slice, each reported as the median over its
// slices, so one stall of the box does not decide a run.
constexpr std::int64_t kWindowSliceNs = 1'000'000'000;
constexpr std::int64_t kRateSliceNs = 250'000'000;
// The warm set: the same queries on every seed, so the workers' scratch
// reaches the same size before the memory is read.
constexpr std::uint64_t kWarmSeed = 0x3a7d;
constexpr int kWarmQueries = 512;

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// ---------------------------------------------------------------- timing

/// How one run of `seconds` is spent: the fixed-rate window (60%) and the
/// saturation run (30%); the traced run uses quarter-length windows.
struct Timing {
  double window_s;
  double saturate_s;
  double trace_window_s;
};

Timing timing_for(double seconds) {
  return {0.6 * seconds, 0.3 * seconds, 0.25 * seconds};
}

std::string work_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string exe(buf, static_cast<std::size_t>(n));
  return exe.substr(0, exe.find_last_of('/'));
}

/// A scratch file next to the binary, removed when the owner goes.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(work_dir() + "/e2e-" + std::to_string(::getpid()) + "-" + tag +
              ".pcsn") {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double late_p99_ms(const Phase& p) {
  std::vector<std::int64_t> at, sent;
  for (const Request& r : p.reqs) {
    at.push_back(r.at_ns);
    sent.push_back(r.sent_ns);
  }
  return lateness_p99_ms(at, sent);
}

std::vector<double> latencies(const Phase& p, Opcode op) {
  std::vector<double> v;
  for (const Request& r : p.reqs) {
    if (r.q.op == op && r.ok()) v.push_back(r.latency_ms());
  }
  return v;
}

/// p99 of the kOk EA answers per kWindowSliceNs slice, median over the
/// slices.
double sliced_ea_p99(const Phase& p) {
  std::vector<std::pair<std::int64_t, double>> v;
  for (const Request& r : p.reqs) {
    if (r.q.op == Opcode::kEarliestArrival && r.ok()) {
      v.emplace_back(r.at_ns, r.latency_ms());
    }
  }
  return v.empty() ? 0.0 : sliced_quantile(std::move(v), kWindowSliceNs, 0.99);
}

/// Quantile (us, bucket upper bound) of the accepted-latency histogram
/// delta between two reads.
double hist_quantile_us(const std::vector<std::uint64_t>& before,
                        const std::vector<std::uint64_t>& after, double q) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < after.size(); ++i) total += after[i] - before[i];
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total) - 1e-9));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    seen += after[i] - before[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return static_cast<double>((i + 1)
                                 << QueryServer::kLatencyBucketShiftNs) /
             1e3;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- one run

struct Window {
  Phase* phase = nullptr;
  double late_p99_ms = 0.0;
  std::vector<std::uint64_t> hist0, hist1;  // in-process server only
  ServerStats stats0, stats1;
};

/// One workload against one deployment: cold starts, the warm set,
/// identity, fixed-rate windows with the side load (feed, kills), the
/// saturation run, and verification of every sampled answer.
class Run {
 public:
  Run(const WorkloadSpec& w, const Timetable& tt, std::uint64_t seed,
      std::string snapshot, Tracer& tracer)
      : w_(w),
        tt_(tt),
        seed_(seed),
        snapshot_(std::move(snapshot)),
        tracer_(tracer),
        qs_(tt, seed * 0x9e3779b97f4a7c15ull + 1, w.profile_share),
        rng_(seed ^ 0x5eed5eed5eedull) {
    QueryStream ws(tt, kWarmSeed, w.profile_share);
    for (int i = 0; i < kWarmQueries; ++i) {
      warm_set_.push_back(ws.next());
      qs_.exclude(warm_set_.back());
    }
  }

  ~Run() {
    if (feed_) feed_->stop();
    client_.reset();
    oracle_.reset();
    d_.stop();
  }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Deployment& deployment() { return d_; }
  OpenLoopClient& client() { return *client_; }

  /// `n` timed cold starts; the last deployment keeps serving. Their first
  /// answers are checked by identity().
  std::vector<double> cold_starts(int n) {
    std::vector<double> setup_s;
    for (int k = 0; k < n; ++k) {
      d_.stop();
      ColdStart& cs = starts_.emplace_back();
      const Query probe = qs_.next(Opcode::kEarliestArrival);
      d_ = cold_start(w_, Timetable(tt_), snapshot_, probe, tracer_, &cs);
      setup_s.push_back(cs.setup_s);
    }
    return setup_s;
  }

  /// Serves through an already started deployment instead.
  void adopt(Deployment d) { d_ = std::move(d); }

  /// The cold starts' first answers, and byte identity of `per_op` queries
  /// per opcode of the mix.
  bool identity(int per_op) {
    bool ok = true;
    for (const ColdStart& cs : starts_) {
      ok = ok && cs.first_payload == oracle().payload(cs.probe, 1);
    }
    std::vector<Query> qv;
    for (int i = 0; i < per_op; ++i) {
      qv.push_back(qs_.next(Opcode::kEarliestArrival));
    }
    for (int i = 0; w_.profile_share > 0 && i < per_op; ++i) {
      qv.push_back(qs_.next(Opcode::kProfile));
    }
    ok = ok && check_identity(d_.port, oracle(), qv);
    correct_ = correct_ && ok;
    return ok;
  }

  /// The warm set, untimed: kWarmQueries of the workload's mix from a fixed
  /// seed, sent on every connection, so every shard runs each query twice
  /// or more and its workers' scratch grows the same way on every seed.
  void warm() {
    if (!client_) {
      client_ = std::make_unique<OpenLoopClient>(d_.port, kConnections);
    }
    balance();
    if (!client_->broadcast(warm_set_)) {
      throw std::runtime_error("the warm set was not answered");
    }
  }

  /// The fixed-rate window with the feed and the kills running beside it.
  Window window(double seconds) {
    balance();
    Window win;
    Phase& p = phases_.emplace_back();
    p.reqs = plan_phase(qs_, rng_, w_.rate_qps, seconds);
    p.start_ns = now_ns() + 5'000'000;
    if (w_.feed_per_s > 0 && !feed_) {
      feed_ = std::make_unique<Feed>(*d_.live, seed_ ^ 0xfeedull, tracer_);
      feed_->start(p.start_ns, w_.feed_per_s, 3600.0);
    }
    std::unique_ptr<Scheduled> killer;
    if (w_.kill_every_s > 0) {
      std::vector<std::int64_t> at;
      for (double t = 0.5 * w_.kill_every_s; t < seconds;
           t += w_.kill_every_s) {
        at.push_back(p.start_ns + static_cast<std::int64_t>(t * 1e9));
      }
      killer = std::make_unique<Scheduled>(at, [this](std::size_t) {
        Scoped s(tracer_, "supervisor", "recovery");
        kills_.push_back(kill_and_wait(*d_.fleet, next_victim_++ % w_.shards));
      });
    }
    if (d_.server) {
      win.hist0 = d_.server->accepted_latency_hist();
      win.stats0 = d_.server->stats();
    }
    client_->run(p);
    killer.reset();
    if (d_.server) {
      win.hist1 = d_.server->accepted_latency_hist();
      win.stats1 = d_.server->stats();
    }
    win.phase = &p;
    win.late_p99_ms = late_p99_ms(p);
    window_ = &p;
    if (win.late_p99_ms > kMaxLateMs) {
      std::cerr << "window: the generator ran " << win.late_p99_ms
                << " ms late at p99 (limit " << kMaxLateMs
                << " ms): the host, not the server, set this window's "
                   "latency\n";
    }
    return win;
  }

  /// Closed loop with kInFlight requests outstanding for `seconds`: the
  /// answers per second the deployment sustains when it never idles, per
  /// kRateSliceNs slice.
  std::vector<double> saturate(double seconds) {
    balance();
    Phase& p = phases_.emplace_back();
    p.reqs = plan_phase(qs_, rng_, kSaturationPoolQps, seconds);
    p.in_flight = kInFlight;
    p.closed_ns = static_cast<std::int64_t>(seconds * 1e9);
    client_->run(p);
    std::vector<std::int64_t> done;
    for (const Request& r : p.reqs) {
      if (r.ok()) done.push_back(r.done_ns);
    }
    return slice_rates(done, p.closed_ns, kRateSliceNs);
  }

  /// Stops the feed and verifies every sampled answer of every kept phase.
  void finish() {
    std::vector<Phase*> all;
    for (Phase& p : phases_) all.push_back(&p);
    if (feed_) {
      feed_->stop();
      feed_check_ = check_feed(tt_, feed_->log(), all, *window_);
      verified_ = feed_check_.verified;
    } else {
      verified_ = verify_samples(oracle(), all);
    }
    if (verified_.wrong != 0) correct_ = false;
    if (d_.fleet && d_.fleet->stats().hold_downs != 0) {
      throw std::runtime_error("a shard was held down (crash loop)");
    }
  }

  bool correct() const { return correct_; }
  const Verified& verified() const { return verified_; }
  const std::vector<KillRecord>& kills() const { return kills_; }
  const Feed* feed() const { return feed_.get(); }
  const FeedCheck& feed_check() const { return feed_check_; }

 private:
  /// Two shards: half the connections on each, so neither a kill nor the
  /// saturation run depends on where the kernel hashed them.
  void balance() {
    if (d_.fleet && w_.shards == 2 && !client_->balance_two_shards()) {
      std::cerr << "could not spread the connections over both shards\n";
    }
  }

  /// Direct answers over the deployment's data, made on first use: after
  /// the memory reading, so its session is not counted in-process.
  Oracle& oracle() {
    if (!oracle_) {
      if (d_.fleet) {
        oracle_live_ = load_snapshot(snapshot_);
        oracle_ = std::make_unique<Oracle>(*oracle_live_);
      } else {
        oracle_ = std::make_unique<Oracle>(*d_.live);
      }
    }
    return *oracle_;
  }

  const WorkloadSpec& w_;
  const Timetable& tt_;
  std::uint64_t seed_;
  std::string snapshot_;
  Tracer& tracer_;
  QueryStream qs_;
  Rng rng_;
  std::vector<Query> warm_set_;
  std::vector<ColdStart> starts_;
  Deployment d_;
  std::unique_ptr<LiveOverlay> oracle_live_;
  std::unique_ptr<Oracle> oracle_;
  std::unique_ptr<OpenLoopClient> client_;
  std::unique_ptr<Feed> feed_;
  std::deque<Phase> phases_;  // every kept phase, verified at finish()
  Phase* window_ = nullptr;   // the last fixed-rate window
  std::vector<KillRecord> kills_;
  unsigned next_victim_ = 0;
  bool correct_ = true;
  Verified verified_;
  FeedCheck feed_check_;
};

Timetable make_network(const WorkloadSpec& w, Tracer& tracer) {
  Scoped s(tracer, "gen", "network");
  return gen::make_preset(w.preset, 1.0, 1);
}

void add_context(Outcome& out, const char* name, const std::vector<double>& v,
                 const char* unit) {
  if (v.empty()) return;
  const Summary s = summarize(v);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-28s p50 %.3f %s, p99 %.3f %s, tail p%g %.3f %s (n=%zu)",
                name, s.p50, unit, s.p99, unit, s.tail.q * 100, s.tail.value,
                unit, s.n);
  out.context.push_back(buf);
}

// ------------------------------------------------------- end-to-end run

Outcome run_e2e(const WorkloadSpec& w, const Options& opt) {
  Tracer off(0);
  const Timing t = timing_for(opt.seconds);
  const Timetable tt = make_network(w, off);
  const TempFile snapshot("e2e");
  Outcome out;
  Run run(w, tt, opt.seed, snapshot.path(), off);
  // An in-process server shares this process with the benchmark: the
  // network, the generator and the query streams are read before the first
  // cold start and taken off, and free heap pages (the earlier cold
  // starts') are handed back before each reading so they count for nobody.
  const bool in_process = w.deploy == Deploy::kInProcess;
  const auto pss_mb = [&run, in_process] {
    if (in_process) ::malloc_trim(0);
    const std::optional<SmapsRollup> r = smaps(run.deployment().pids());
    if (!r) throw std::runtime_error("cannot read smaps_rollup");
    return static_cast<double>(r->pss_kb) / 1024.0;
  };
  const double own_mb = in_process ? pss_mb() : 0.0;
  const std::vector<double> setups = run.cold_starts(opt.smoke ? 1 : 5);
  run.warm();
  const double memory_mb = pss_mb() - own_mb;
  run.identity(opt.smoke ? 32 : 256);
  const Window win = run.window(t.window_s);
  const std::vector<double> rates = run.saturate(t.saturate_s);
  const double memory_end_mb = pss_mb() - own_mb;
  run.finish();

  const Phase& p = *win.phase;
  const Summary ea = summarize(latencies(p, Opcode::kEarliestArrival));
  std::uint64_t ok = 0;
  for (const Request& r : p.reqs) ok += r.ok() ? 1 : 0;
  out.attempted = p.reqs.size();
  out.failed = out.attempted - ok;
  out.correct = run.correct();
  Metrics& m = out.metrics;
  m["setup_s"] = {median(setups), setups.size()};
  m["ok_pct"] = {100.0 * static_cast<double>(ok) /
                     static_cast<double>(std::max<std::uint64_t>(1, out.attempted)),
                 out.attempted};
  m["rss_mb"] = {memory_mb};

  out.context.push_back(
      fmt("ea_p50_ms %.4f", ea.p50) +
      fmt(", ea_p99_ms %.4f (median of the window's 1 s slices)",
          sliced_ea_p99(p)) +
      fmt(", tail p%g", ea.tail.q * 100) + fmt(" %.3f ms", ea.tail.value) +
      " (n=" + std::to_string(ea.n) + ")");
  out.context.push_back(
      fmt("max_qps %.1f (median of the saturation run's 250 ms slices)",
          median(rates)));
  add_context(out, "profile latency", latencies(p, Opcode::kProfile), "ms");
  if (run.feed() != nullptr) {
    add_context(out, "staleness", run.feed_check().staleness_ms, "ms");
  }
  std::vector<double> recovery;
  for (const KillRecord& k : run.kills()) recovery.push_back(k.total_ms());
  add_context(out, "recovery", recovery, "ms");
  out.context.push_back(
      fmt("memory at the end of the run %.1f MiB", memory_end_mb));
  out.context.push_back(
      fmt("load.late_p99_ms %.4f", win.late_p99_ms) +
      ", resent " + std::to_string(p.resent) + ", verified " +
      std::to_string(run.verified().checked) + " (wrong " +
      std::to_string(run.verified().wrong) + ")");
  return out;
}

// ------------------------------------------------------------ traced run

/// The server layer under load: accepted latency from the server's own
/// histogram, the rest of the client latency (wire, epoll, client), the
/// typed failure counters and the admission plan.
void server_metrics(Metrics& m, const Window& win, const QueryServer& server) {
  const double accepted_p50 = hist_quantile_us(win.hist0, win.hist1, 0.5);
  m["server.accepted_p50_us"] = {accepted_p50};
  m["server.accepted_p99_us"] = {hist_quantile_us(win.hist0, win.hist1, 0.99)};
  std::vector<double> client_ms;
  for (const Request& r : win.phase->reqs) {
    if (r.ok()) client_ms.push_back(r.latency_ms());
  }
  m["server.wire_p50_us"] = {median(client_ms) * 1e3 - accepted_p50};
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  m["server.shed"] = {delta(win.stats1.requests_shed, win.stats0.requests_shed)};
  m["server.deadline_expired"] = {
      delta(win.stats1.requests_deadline, win.stats0.requests_deadline)};
  m["server.internal"] = {
      delta(win.stats1.requests_internal, win.stats0.requests_internal)};
  m["server.conn_rejected"] = {delta(win.stats1.connections_rejected,
                                     win.stats0.connections_rejected)};
  const AdmissionPlan& plan = server.admission();
  m["server.queue_capacity_plan"] = {static_cast<double>(plan.queue_capacity)};
  m["server.max_connections_plan"] = {
      static_cast<double>(plan.max_connections)};
  m["server.per_worker_scratch_bytes"] = {
      static_cast<double>(plan.per_worker_scratch_bytes)};
}

Outcome run_traced(const WorkloadSpec& w, const Options& opt) {
  Tracer tr(std::size_t{1} << 21);
  const Timing t = timing_for(opt.seconds);
  const Timetable tt = make_network(w, tr);
  const TempFile snapshot("trace");
  Outcome out;
  Metrics& m = out.metrics;
  const auto put = [&m](const char* name, double v) { m[name] = {v}; };
  const auto med = [&tr](const char* layer, const char* name) {
    return median(tr.durations_ms(layer, name));
  };

  // The workload's own window, untraced then traced, and its saturation
  // run. The untraced window gives the load numbers, the traced one the
  // spans and, when the server is in-process, the server numbers.
  {
    Run run(w, tt, opt.seed, snapshot.path(), tr);
    run.cold_starts(1);
    if (w.deploy == Deploy::kInProcess) build_snapshot(tt, snapshot.path(), tr);
    run.warm();
    run.identity(opt.smoke ? 16 : 64);
    const Window wa = run.window(t.trace_window_s);
    run.client().set_tracer(&tr);
    const Window wb = run.window(t.trace_window_s);
    run.client().set_tracer(nullptr);
    put("load.max_qps", median(run.saturate(t.saturate_s)));
    run.finish();
    out.correct = run.correct();
    const Summary ea_a = summarize(latencies(*wa.phase, Opcode::kEarliestArrival));
    const Summary ea_b = summarize(latencies(*wb.phase, Opcode::kEarliestArrival));
    const Phase& p = *wa.phase;
    std::uint64_t fails[7] = {0, 0, 0, 0, 0, 0, 0};
    for (const Request& r : p.reqs) ++fails[static_cast<int>(r.fail)];
    out.attempted = p.reqs.size();
    out.failed = out.attempted - fails[0];
    put("load.sent", static_cast<double>(p.reqs.size()));
    put("load.ok", static_cast<double>(fails[0]));
    put("load.failed.shed", static_cast<double>(fails[int(Fail::kShed)]));
    put("load.failed.deadline",
        static_cast<double>(fails[int(Fail::kDeadline)] +
                            fails[int(Fail::kStatus)]));
    put("load.failed.conn", static_cast<double>(fails[int(Fail::kConn)]));
    put("load.failed.timeout", static_cast<double>(fails[int(Fail::kTimeout)]));
    put("load.failed.wrong", static_cast<double>(fails[int(Fail::kWrong)]));
    put("load.resent", static_cast<double>(p.resent));
    put("load.late_p99_ms", wa.late_p99_ms);
    put("load.ea_p50_ms", ea_a.p50);
    put("load.ea_p99_ms", sliced_ea_p99(p));
    put("load.verified", static_cast<double>(run.verified().checked));
    put("load.tail_ms", ea_a.tail.value);
    put("load.tail_q", ea_a.tail.q);
    put("load.n", static_cast<double>(ea_a.n));
    put("trace.overhead_pct",
        ea_a.p50 > 0 ? (ea_b.p50 / ea_a.p50 - 1.0) * 100.0 : 0.0);
    if (w.deploy == Deploy::kInProcess) {
      server_metrics(m, wb, *run.deployment().server);
    }
  }

  // A fleet's shards are out of reach, so for the server layer the same
  // window runs once more against an in-process server with the fleet's
  // total worker count over the same snapshot.
  if (w.deploy == Deploy::kFleet) {
    WorkloadSpec ip = w;
    ip.deploy = Deploy::kInProcess;
    ip.workers = w.shards * w.workers;
    ip.kill_every_s = 0.0;
    Deployment d;
    d.live = load_snapshot(snapshot.path());
    ServerOptions so;
    so.host = "127.0.0.1";
    so.workers = ip.workers;
    so.queue_capacity = kQueueCapacity;
    d.server = std::make_unique<QueryServer>(*d.live, so);
    d.server->start();
    d.port = d.server->port();
    Run run(ip, tt, opt.seed + 1, snapshot.path(), tr);
    run.adopt(std::move(d));
    run.warm();
    const Window wc = run.window(t.trace_window_s);
    run.finish();
    out.correct = out.correct && run.correct();
    server_metrics(m, wc, *run.deployment().server);
  }

  // The ladder, the paper rung and the recovery probe.
  QueryStream lq(tt, opt.seed ^ 0x1add3full, 0.0);
  const LadderResult lr = run_ladder(snapshot.path(), lq, opt.smoke ? 200 : 2000,
                                     opt.smoke ? 4 : w.ladder_profiles, tr);
  out.correct = out.correct && lr.identical;

  // The live layer on this network.
  FeedCheck fc;
  std::vector<double> apply_ms;
  LiveUpdateStats live_stats;
  std::size_t pinned_max = 0;
  {
    // A small live_feed on this network (in-process server, 1000 EA/s, 4
    // delay events/s), run through the same code as the workload.
    const WorkloadSpec fp{"feed_probe", w.preset, Deploy::kInProcess, 1, 2,
                          1000.0, 0.0, 4.0, 0.0, 0, "live-layer probe"};
    Run run(fp, tt, opt.seed + 2, "", tr);
    run.cold_starts(1);
    run.warm();
    run.identity(16);
    run.window(t.trace_window_s);
    run.finish();
    out.correct = out.correct && run.correct();
    fc = run.feed_check();
    for (const FeedRecord& rec : run.feed()->log()) {
      apply_ms.push_back(static_cast<double>(rec.end_ns - rec.begin_ns) / 1e6);
    }
    live_stats = run.deployment().live->stats();
    pinned_max = run.feed()->retired_pinned_max();
  }

  put("gen.network_ms", med("gen", "network"));
  put("gen.stations", static_cast<double>(tt.num_stations()));
  put("gen.connections", static_cast<double>(tt.num_connections()));
  put("timetable.snapshot_save_ms", med("timetable", "snapshot_save"));
  put("timetable.snapshot_bytes", static_cast<double>(lr.snapshot_bytes));
  put("timetable.snapshot_load_ms", med("timetable", "snapshot_load"));
  put("graph.build_ms", med("graph", "build"));
  put("graph.bytes", static_cast<double>(lr.graph_bytes));
  put("algo.contract_ms", med("algo", "contract"));
  put("algo.overlay_bytes", static_cast<double>(lr.overlay_bytes));
  put("algo.shortcut_points", static_cast<double>(lr.shortcut_points));
  const Summary ea_engine = summarize(tr.durations_ms("algo", "ea_engine"));
  put("algo.ea_engine_p50_us", ea_engine.p50 * 1e3);
  put("algo.ea_engine_p99_us", ea_engine.p99 * 1e3);
  put("algo.session_ea_p50_us", med("algo", "session_ea") * 1e3);
  put("algo.ea_settled_mean", lr.ea_settled_mean);
  put("algo.ea_relaxed_mean", lr.ea_relaxed_mean);
  put("algo.ea_stale_pop_ratio", lr.ea_stale_pop_ratio);
  const Summary pe = summarize(tr.durations_ms("algo", "profile_engine"));
  put("algo.profile_engine_p50_ms", pe.p50);
  put("algo.profile_engine_p99_ms", pe.p99);
  put("algo.session_profile_p50_ms", med("algo", "session_profile"));
  put("algo.profile_settled_mean", lr.profile_settled_mean);
  put("algo.profile_self_pruned_ratio", lr.profile_self_pruned_ratio);
  put("algo.profile_stop_pruned_ratio", lr.profile_stop_pruned_ratio);
  put("algo.table1_ms.t1", med("algo", "table1.t1"));
  put("algo.table1_ms.t2", med("algo", "table1.t2"));
  put("algo.table1_ms.t4", med("algo", "table1.t4"));
  put("algo.table1_settled.t1", lr.table1_settled[0]);
  put("algo.table1_settled.t2", lr.table1_settled[1]);
  put("algo.table1_settled.t4", lr.table1_settled[2]);
  put("algo.scratch_bytes_end", static_cast<double>(lr.scratch_bytes_end));
  const double live_ea_us = med("live", "session_ea") * 1e3;
  put("live.session_ea_p50_us", live_ea_us);
  put("live.session_profile_p50_ms", med("live", "session_profile"));
  const Summary apply = summarize(apply_ms);
  put("live.apply_ms_p50", apply.p50);
  put("live.apply_ms_p90", apply.p90);
  const Summary stale = summarize(fc.staleness_ms);
  put("live.staleness_p50_ms", stale.p50);
  put("live.staleness_p90_ms", stale.p90);
  put("live.publish_to_answer_ms_p50", median(fc.publish_to_answer_ms));
  put("live.first_after_publish_us_p50", median(fc.first_after_us));
  put("live.relinks", static_cast<double>(live_stats.relinks));
  put("live.recontractions", static_cast<double>(live_stats.recontractions));
  put("live.degradations", static_cast<double>(live_stats.degradations));
  put("live.events_rejected", static_cast<double>(live_stats.events_rejected));
  put("live.incremental_share",
      static_cast<double>(live_stats.relinks) /
          static_cast<double>(std::max<std::uint64_t>(
              1, live_stats.relinks + live_stats.recontractions)));
  put("live.retired_pinned_max", static_cast<double>(pinned_max));
  const Summary rtt = summarize(tr.durations_ms("server", "rtt_ea"));
  put("server.rtt_p50_us", rtt.p50 * 1e3);
  put("server.rtt_p99_us", rtt.p99 * 1e3);
  put("server.queue_wait_p50_us",
      m.at("server.accepted_p50_us").value - live_ea_us);
  put("supervisor.rtt_p50_us", med("supervisor", "rtt_ea") * 1e3);
  put("supervisor.spawn_to_healthy_ms", med("supervisor", "spawn_to_healthy"));
  std::vector<double> total, detect, respawn, ready;
  for (const KillRecord& k : lr.kills) {
    total.push_back(k.total_ms());
    detect.push_back(k.detect_ms);
    respawn.push_back(k.respawn_ms);
    ready.push_back(k.ready_ms);
  }
  put("supervisor.recovery_ms_p50", median(total));
  put("supervisor.detect_ms", median(detect));
  put("supervisor.respawn_ms", median(respawn));
  put("supervisor.ready_ms", median(ready));
  put("supervisor.shard_pss_mb",
      static_cast<double>(lr.shard_memory.pss_kb) / 1024.0);
  put("supervisor.shard_private_mb",
      static_cast<double>(lr.shard_memory.private_kb) / 1024.0);
  put("supervisor.crashes", static_cast<double>(lr.fleet_stats.crashes));
  put("supervisor.restarts", static_cast<double>(lr.fleet_stats.restarts));
  put("supervisor.hung_kills", static_cast<double>(lr.fleet_stats.hung_kills));
  put("supervisor.hold_downs", static_cast<double>(lr.fleet_stats.hold_downs));
  put("trace.spans", static_cast<double>(tr.size()));

  for (const auto& [layer, ms] : tr.self_ms_by_layer()) {
    out.context.push_back(fmt("self time %.3f ms", ms) + " in " + layer);
  }
  if (!opt.trace_path.empty() && !tr.write_jsonl(opt.trace_path)) {
    throw std::runtime_error("cannot write " + opt.trace_path);
  }
  return out;
}

// ----------------------------------------------------------------- output

std::string git_sha() {
  if (::access(".git", F_OK) != 0) return "unknown";
  FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {0};
  const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
  ::pclose(p);
  std::string sha = got ? buf : "unknown";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The machine and the parameters a result was measured with.
void write_provenance(JsonWriter& j, const Options& opt, const WorkloadSpec& w,
                      bool traced) {
  const Timing t = timing_for(opt.seconds);
  j.key("provenance")
      .begin_object()
      .field("git_sha", git_sha())
      .field("nproc", std::thread::hardware_concurrency())
      .field("cpu", cpu_model())
      .field("compiler", std::string("gcc-compatible ") + __VERSION__)
      .field("build_type", PCONN_E2E_BUILD_TYPE)
      .field("scale", 1.0, 1)
      .field("network_seed", 1)
      .field("seed", opt.seed)
      .field("seconds", opt.seconds, 2)
      .field("traced", traced)
      .key("workload")
      .begin_object()
      .field("name", w.name)
      .field("deployment", deployment_name(w))
      .field("network", gen::preset_name(w.preset))
      .field("rate_qps", w.rate_qps, 1)
      .field("profile_share", w.profile_share, 2)
      .field("feed_events_per_s", w.feed_per_s, 1)
      .field("kill_every_s", w.kill_every_s, 1)
      .field("connections", kConnections)
      .field("warm_queries", kWarmQueries)
      .field("queue_capacity", kQueueCapacity)
      .field("window_s", traced ? t.trace_window_s : t.window_s, 2)
      .field("saturate_s", t.saturate_s, 2)
      .field("in_flight", kInFlight)
      .end_object()
      .end_object();
}

void write_metrics(JsonWriter& j, const Metrics& m,
                   std::span<const MetricDef> defs, const std::string& prefix) {
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    if (it == m.end()) throw std::logic_error(std::string("unset ") + d.name);
    j.key(prefix + d.name)
        .begin_object()
        .field("value", it->second.value, 9)
        .field("unit", d.unit)
        .end_object();
  }
}

void print_metrics(const Metrics& m, std::span<const MetricDef> defs) {
  for (const MetricDef& d : defs) {
    const Metric& x = m.at(d.name);
    std::printf("  %-34s %16.6f %-8s", d.name, x.value, d.unit);
    if (x.n != 0) std::printf(" n=%zu", x.n);
    if (x.tail) {
      std::printf("  tail p%g %.3f (n=%zu)", x.tail->q * 100.0, x.tail->value,
                  x.tail->n);
    }
    std::printf("\n");
  }
}

int run_all(const Options& opt) {
  std::vector<const WorkloadSpec*> todo;
  if (opt.workload.empty()) {
    for (const WorkloadSpec& w : workloads()) todo.push_back(&w);
  } else if (const WorkloadSpec* w = find_workload(opt.workload)) {
    todo.push_back(w);
  } else {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const bool traced = !opt.trace_path.empty();
  const std::span<const MetricDef> defs =
      traced ? std::span<const MetricDef>(kPerLayer) : kEndToEnd;
  // With several workloads every metric name carries its workload's name.
  const auto prefix = [&](const WorkloadSpec& w) {
    return todo.size() > 1 ? std::string(w.name) + "." : std::string();
  };

  std::vector<Outcome> outcomes;
  for (const WorkloadSpec* w : todo) {
    JsonWriter header;
    header.begin_object();
    write_provenance(header, opt, *w, traced);
    header.end_object();
    std::cout << header.str() << "\n== " << w->name << " ("
              << deployment_name(*w) << ", " << gen::preset_name(w->preset)
              << "): " << w->why << "\n";
    std::cout.flush();
    const Outcome& o =
        outcomes.emplace_back(traced ? run_traced(*w, opt) : run_e2e(*w, opt));
    print_metrics(o.metrics, defs);
    for (const std::string& c : o.context) std::cout << "  - " << c << "\n";
    std::cout << "  correct " << (o.correct ? "yes" : "NO") << ", attempted "
              << o.attempted << ", failed " << o.failed << "\n";
  }

  if (!opt.json_path.empty()) {
    JsonWriter doc;
    doc.begin_object().key("results").begin_array();
    for (std::size_t i = 0; i < todo.size(); ++i) {
      doc.begin_object();
      write_provenance(doc, opt, *todo[i], traced);
      doc.field("correct", outcomes[i].correct)
          .field("attempted", outcomes[i].attempted)
          .field("failed", outcomes[i].failed)
          .key("metrics")
          .begin_object();
      write_metrics(doc, outcomes[i].metrics, defs, "");
      doc.end_object().end_object();
    }
    doc.end_array().end_object();
    std::ofstream out(opt.json_path);
    out << doc.str() << "\n";
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << "\n";
      return 1;
    }
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const Outcome& o : outcomes) {
    correct = correct && o.correct;
    attempted += o.attempted;
    failed += o.failed;
  }
  // The result line, last on stdout.
  JsonWriter last;
  last.begin_object()
      .field("correct", correct)
      .field("attempted", std::max<std::uint64_t>(attempted, 1))
      .field("failed", failed)
      .key("metrics")
      .begin_object();
  for (std::size_t i = 0; i < todo.size(); ++i) {
    write_metrics(last, outcomes[i].metrics, defs, prefix(*todo[i]));
  }
  last.end_object().end_object();
  std::cout << last.str() << "\n";
  return correct ? 0 : 1;
}

// --------------------------------------------------------------- selftest

int selftest() {
  int checks = 0, failures = 0;
  const auto check = [&](bool ok, const char* what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::cerr << "selftest FAILED: " << what << "\n";
    }
  };

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(quantile_sorted(hundred, 0.5) == 50, "p50 of 1..100 is 50");
  check(quantile_sorted(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  check(quantile_sorted(hundred, 1.0) == 100, "p100 is the maximum");
  check(quantile_sorted(hundred, 0.0) == 1, "p0 is the minimum");
  const auto tail_of = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    return tail_quantile(v);
  };
  check(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  check(tail_of(1000).q == 0.99, "tail of 1000 samples is p99");
  check(tail_of(999).q == 0.9, "tail of 999 samples is p90");
  check(tail_of(10000).q == 0.999, "tail of 10000 samples is p99.9");
  check(tail_of(120).q == 0.9, "tail of 120 events is p90");
  check(tail_of(10).q == 0.5, "tiny samples report the median");

  std::vector<std::pair<std::int64_t, double>> sliced;
  for (int s = 0; s < 10; ++s) {
    for (int i = 1; i <= 200; ++i) {
      sliced.emplace_back(s * 1'000'000'000LL + i, s == 3 ? 1000.0 : i);
    }
  }
  check(sliced_quantile(sliced, 1'000'000'000, 0.99) == 198,
        "a stalled slice does not move the sliced p99");
  check(sliced_quantile({{0, 5.0}, {1, 7.0}}, 1, 0.99) == 7.0,
        "sparse slices fall back to the whole sample");

  // 10 slices of 250 ms: 100 events each, but none in the stalled third.
  std::vector<std::int64_t> done;
  for (std::int64_t k = 0; k < 10; ++k) {
    for (std::int64_t i = 0; k != 2 && i < 100; ++i) {
      done.push_back(k * 250'000'000 + i * 2'500'000);
    }
  }
  check(median(slice_rates(done, 2'500'000'000, 250'000'000)) == 400.0,
        "a stalled slice does not move the median rate");
  check(slice_rates({0, 1, 2, 3}, 100'000'000, 250'000'000) ==
            std::vector<double>{40.0},
        "a span under one slice is one slice");

  Rng a(7), b(7), c(8);
  const auto sa = poisson_schedule(a, 1000.0, 100.0);
  const auto sb = poisson_schedule(b, 1000.0, 100.0);
  const auto sc = poisson_schedule(c, 1000.0, 100.0);
  check(sa == sb, "one seed, one schedule");
  check(sa != sc, "another seed, another schedule");
  check(std::abs(static_cast<double>(sa.size()) - 100000.0) < 3000.0,
        "Poisson count near rate x duration");
  check(std::is_sorted(sa.begin(), sa.end()) && sa.front() >= 0 &&
            sa.back() < 100'000'000'000,
        "arrivals ascend within the window");

  check(std::abs(lateness_p99_ms({0, 1'000'000, 2'000'000},
                                 {0, 1'500'000, 2'000'000}) -
                 0.5) < 1e-12,
        "lateness is send minus schedule");
  check(lateness_p99_ms({5'000'000}, {1'000'000}) == 0.0,
        "early sends count as on time");
  check(lateness_p99_ms({0, 0}, {-1, 3'000'000}) == 3.0,
        "unsent requests carry no lateness");

  const char* rollup =
      "5581626bd000-7fff932b9000 ---p 00000000 00:00 0   [rollup]\n"
      "Rss:                1300 kB\n"
      "Pss:                 341 kB\n"
      "Pss_Dirty:           104 kB\n"
      "Private_Clean:        44 kB\n"
      "Private_Dirty:       104 kB\n";
  const auto parsed = parse_smaps_rollup(rollup);
  check(parsed && parsed->pss_kb == 341, "smaps_rollup Pss");
  check(parsed && parsed->private_kb == 148, "smaps_rollup private pages");
  check(!parse_smaps_rollup("Rss: 12 kB\n"), "no Pss, no result");

  Tracer tr(8);
  const std::uint32_t root = tr.add("x", "root", 0, 10'000'000);
  tr.add("y", "child", 2'000'000, 5'000'000, root);
  const auto self = tr.self_ms_by_layer();
  check(self.at("x") == 7.0 && self.at("y") == 3.0,
        "self time subtracts children");

  std::printf("selftest: %d/%d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> std::optional<std::string> {
      const std::string f = std::string(flag) + "=";
      if (a.rfind(f, 0) == 0) return a.substr(f.size());
      return std::nullopt;
    };
    if (auto v = value("--workload")) {
      o.workload = *v;
    } else if (auto v = value("--seed")) {
      o.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds")) {
      o.seconds = std::atof(v->c_str());
    } else if (auto v = value("--trace")) {
      o.trace_path = *v;
    } else if (auto v = value("--json")) {
      o.json_path = *v;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--selftest") {
      o.selftest = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--workload=NAME] [--seed=N] [--seconds=S] "
                   "[--trace=FILE] [--smoke] [--json=FILE] [--selftest]\n";
      std::exit(2);
    }
  }
  if (o.smoke) o.seconds = std::min(o.seconds, 1.5);
  if (!(o.seconds > 0)) {
    std::cerr << "--seconds must be positive\n";
    std::exit(2);
  }
  return o;
}

}  // namespace
}  // namespace pconn::e2e

int main(int argc, char** argv) {
  const pconn::e2e::Options opt = pconn::e2e::parse(argc, argv);
  if (opt.selftest) return pconn::e2e::selftest();
  try {
    return pconn::e2e::run_all(opt);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
