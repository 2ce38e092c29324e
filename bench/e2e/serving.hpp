// The serving side of the benchmark: the workload catalogue, seeded query
// streams, the two deployments (a supervised shard fleet, or a QueryServer
// inside the benchmark process) with their timed cold starts, the delay
// feed and shard killer that run beside the load, and the answer oracle.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "gen/generator.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "loadgen.hpp"
#include "server/server.hpp"
#include "stats.hpp"
#include "supervisor/supervisor.hpp"
#include "trace.hpp"

namespace pconn::e2e {

enum class Deploy : std::uint8_t { kFleet, kInProcess };

/// Request queue of every benchmarked server. The admission plan derived
/// from the default 64 MiB budget leaves an LA-like shard ~120 slots, and a
/// shared 4-vCPU KVM guest can pause for 5-70 ms every few seconds: at
/// 4000 req/s one pause would shed requests and make failures a property of
/// the host. 4096 slots hold a pause; a real overload still shows as
/// latency.
constexpr std::size_t kQueueCapacity = 4096;

/// One traffic mix against one deployment.
struct WorkloadSpec {
  const char* name;
  gen::Preset preset;
  Deploy deploy;
  unsigned shards;       // kFleet only
  unsigned workers;      // per shard, or the in-process pool
  double rate_qps;       // fixed open-loop rate
  double profile_share;  // kProfile share of the mix, the rest is EA
  double feed_per_s;     // delay events per second (0: no feed)
  double kill_every_s;   // SIGKILL interval, alternating shards (0: none)
  int ladder_profiles;   // profile queries per ladder rung
  const char* why;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);
std::string deployment_name(const WorkloadSpec& w);

/// Seeded queries with no (kind, s, t, dep) repeat: uniform station pairs
/// (s != t) and uniform departures over the period.
class QueryStream {
 public:
  QueryStream(const Timetable& tt, std::uint64_t seed, double profile_share);
  Query next();           // kind drawn from the mix
  Query next(Opcode op);  // forced kind
  /// Keeps `q` out of the queries this stream draws from now on.
  void exclude(const Query& q) { seen_.insert(key(q)); }

 private:
  static std::uint64_t key(const Query& q);

  Rng rng_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t stations_;
  Time period_;
  double profile_share_;
};

/// Poisson arrivals at `rate` for `seconds`, queries from `qs`, and a
/// seeded 1-in-16 sample marked for verification.
std::vector<Request> plan_phase(QueryStream& qs, Rng& rng, double rate,
                                double seconds);

/// A running deployment, reachable on 127.0.0.1:port.
struct Deployment {
  std::unique_ptr<ShardSupervisor> fleet;
  std::unique_ptr<LiveOverlay> live;  // kInProcess
  std::unique_ptr<QueryServer> server;
  std::uint16_t port = 0;

  /// Processes whose memory serves the deployment: the shards, or this
  /// process for an in-process server.
  std::vector<pid_t> pids() const;
  void stop();
};

/// Graph build, contraction and save_snapshot: what a fleet needs before
/// its first shard can start.
void build_snapshot(const Timetable& tt, const std::string& path,
                    Tracer& tracer, std::uint32_t parent = 0);
std::unique_ptr<ShardSupervisor> start_fleet(const std::string& snapshot,
                                             unsigned shards, unsigned workers,
                                             Tracer& tracer,
                                             std::uint32_t parent = 0);

struct ColdStart {
  double setup_s = 0.0;
  Query probe;                // the first request
  std::string first_payload;  // its response payload (req_id 1)
};

/// Timetable in memory -> first answer from the deployment: for a fleet
/// the snapshot is built, the supervisor started and waited on; in-process
/// the LiveOverlay is built and the server started. `tt` is taken by value
/// so the caller's copy happens before the clock starts.
Deployment cold_start(const WorkloadSpec& w, Timetable tt,
                      const std::string& snapshot, const Query& probe,
                      Tracer& tracer, ColdStart* out);

/// Loads a snapshot the way a shard does (map, adopt timetable + overlay).
std::unique_ptr<LiveOverlay> load_snapshot(const std::string& path);

/// Direct answers: the response payload a deployment must send for a query,
/// computed by a LiveQuerySession over the same data.
class Oracle {
 public:
  explicit Oracle(const LiveOverlay& live) : session_(live) {}
  std::string payload(const Query& q, std::uint32_t req_id);

 private:
  LiveQuerySession session_;
};

/// Byte identity of the deployment's responses against the oracle, one
/// request at a time over a BlockingClient.
bool check_identity(std::uint16_t port, Oracle& oracle,
                    const std::vector<Query>& queries);

struct Verified {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
};

/// Checks every sampled kOk response against the oracle; mismatches are
/// marked Fail::kWrong.
Verified verify_samples(Oracle& oracle, std::vector<Phase*> phases);

/// Runs fn(k) on its own thread at each absolute steady time at[k] until
/// the list ends or stop() is called. stop() joins.
class Scheduled {
 public:
  Scheduled(std::vector<std::int64_t> at, std::function<void(std::size_t)> fn);
  ~Scheduled() { stop(); }
  Scheduled(const Scheduled&) = delete;
  Scheduled& operator=(const Scheduled&) = delete;
  void stop();

 private:
  std::vector<std::int64_t> at_;
  std::function<void(std::size_t)> fn_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

/// The seeded delay feed: 80% delays, 10% cancellations, 10% relief trips,
/// each drawn against the epoch it is applied to.
struct FeedRecord {
  std::int64_t at_ns = 0;     // scheduled (steady clock)
  std::int64_t begin_ns = 0;  // apply() entered
  std::int64_t end_ns = 0;    // epoch published
  ApplyStatus status = ApplyStatus::kRejected;
  std::uint64_t epoch = 0;        // serving after the event
  std::uint64_t retry_epoch = 0;  // republished by retry() after a degrade
  DelayEvent ev;
};

class Feed {
 public:
  Feed(LiveOverlay& live, std::uint64_t seed, Tracer& tracer)
      : live_(live), rng_(seed), tracer_(tracer) {}
  /// Starts applying events at `per_s` (Poisson) from t0_ns until stop().
  void start(std::int64_t t0_ns, double per_s, double max_seconds);
  void stop();
  /// Valid after stop().
  const std::vector<FeedRecord>& log() const { return log_; }
  std::size_t retired_pinned_max() const { return pinned_max_; }

 private:
  void apply_one(std::int64_t at_ns);

  LiveOverlay& live_;
  Rng rng_;
  Tracer& tracer_;
  std::vector<FeedRecord> log_;
  std::size_t pinned_max_ = 0;
  std::unique_ptr<Scheduled> thread_;
};

struct FeedCheck {
  Verified verified;
  std::vector<double> staleness_ms;         // scheduled -> first answer
  std::vector<double> publish_to_answer_ms; // published -> first answer
  std::vector<double> first_after_us;       // latency of that first answer
};

/// Replays the feed's accepted events through apply_event and checks the
/// samples stamped with every 8th epoch against a flat QuerySession on that
/// epoch; measures staleness from `phase`'s answers.
FeedCheck check_feed(const Timetable& tt0, const std::vector<FeedRecord>& log,
                     std::vector<Phase*> verify, const Phase& phase);

struct KillRecord {
  double detect_ms = -1.0;   // SIGKILL -> supervisor reaped the shard
  double respawn_ms = -1.0;  // reaped -> replacement spawned
  double ready_ms = -1.0;    // spawned -> heartbeating, fleet healthy
  double total_ms() const { return detect_ms + respawn_ms + ready_ms; }
};

/// SIGKILLs shard `victim` and follows the supervisor until the fleet is
/// healthy again (5 s at most).
KillRecord kill_and_wait(ShardSupervisor& sup, unsigned victim);

/// Sum of smaps_rollup over `pids` (MiB); nullopt if any is unreadable.
std::optional<SmapsRollup> smaps(const std::vector<pid_t>& pids);

}  // namespace pconn::e2e
