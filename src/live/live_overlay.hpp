// LiveOverlay — the epoch-versioned serving state of the live-update
// subsystem (docs/architecture.md "Live updates").
//
// RCU shape: readers pin an immutable LiveSnapshot (a shared_ptr copy) for
// the duration of a query and never block; a single writer applies delay
// events, builds the next snapshot entirely off to the side, and publishes
// it with one pointer swap. Retired snapshots stay alive exactly as long
// as some reader still pins them (shared_ptr refcount IS the epoch pin),
// and the writer tracks them through weak_ptrs for observability.
//
// Per event, the writer tries the cheapest sufficient path:
//   1. incremental re-link (relink_overlay) — byte-identical overlay at a
//      fraction of a re-contraction, the expected case for delays;
//   2. full re-contraction — when the perturbation changed the graph's
//      structure (a cancelled trip emptying a route, an extra trip adding
//      one, an overtaking-induced route split);
//   3. graceful degradation — when either path overruns its deadline,
//      trips an injected fault, runs out of memory, or the re-link blast
//      radius exceeds its cap: the new timetable is published WITHOUT an
//      overlay and every station is served by the flat engines (slower but
//      exact; staleness through any changed TTF makes per-station partial
//      bypass unsound, so bypass is global and `bypassed_stations` is
//      metadata). retry() re-attempts the contraction with exponential
//      backoff and republishes the overlay on success.
//
// Correctness never depends on which path ran: station-level answers are
// byte-identical across all three (tests/live_test.cpp).
//
// Threading contract: snapshot() is safe from any thread; apply()/retry()
// are single-writer (call them from one updater thread). Contraction
// itself may still fan out over its own ThreadPool.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "graph/td_graph.hpp"
#include "live/delay_feed.hpp"
#include "timetable/timetable.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"

namespace pconn {

/// One immutable epoch: everything a query needs, versioned together.
/// Readers hold the snapshot (and thus all three worlds) via shared_ptr
/// for the duration of a query; the inner shared_ptrs let consecutive
/// snapshots share unchanged pieces (a retry() reuses the degraded
/// epoch's timetable and graph structure, only the overlay is new).
struct LiveSnapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const Timetable> tt;
  /// With an overlay, the graph owns no pool: it reads the overlay pool's
  /// base prefix (TdGraph::adopt / rebased). Degraded, it owns its pool.
  std::shared_ptr<const TdGraph> graph;
  /// Null while degraded (or when overlays are disabled): queries route
  /// through the flat engines — slower, still exact.
  std::shared_ptr<const OverlayGraph> overlay;
  bool degraded = false;
  /// Stations currently bypassing the overlay. Bypass is global (see
  /// header note), so this is every station while degraded and empty
  /// otherwise — kept as a list for feed observability/dashboards.
  std::vector<StationId> bypassed_stations;
};

struct LiveOverlayOptions {
  /// Contraction settings of the initial build and every re-contraction.
  /// witness_settles is forced to 0 — witness pruning bakes travel-time
  /// bounds into the overlay structure and would break re-link exactness
  /// (contraction.hpp).
  OverlayContractionOptions contraction;
  /// Re-link budget: blast-radius cap, deadline, fault hook.
  RelinkOptions relink;
  /// Base of the exponential retry backoff; retry attempt k targets
  /// backoff_ms * 2^k before rebuilding. 0 disables sleeping (tests).
  double backoff_ms = 0.0;
  /// Cap on the backoff exponent (2^10 ~ 1000x base).
  std::uint32_t max_backoff_exp = 10;
  /// Decorrelated jitter on the backoff (AWS-style): attempt k sleeps
  /// uniform(backoff_ms, 3 * previous_sleep), capped at
  /// backoff_ms * 2^max_backoff_exp. Without it, worker recoveries that
  /// degraded on the same event retry in lockstep and the rebuild storm
  /// re-arrives intact; jitter decorrelates them while keeping the same
  /// expected growth. Disable for the deterministic pure-exponential
  /// schedule.
  bool backoff_jitter = true;
  /// Seed of the jitter stream — deterministic in tests, so the exact
  /// sleep sequence is reproducible per seed.
  std::uint64_t backoff_seed = 0x9e3779b97f4a7c15ull;
  /// Fault hook for the contraction path (kContractionWorker); usually the
  /// same injector as relink.faults. Null in production.
  FaultInjector* faults = nullptr;
};

enum class ApplyStatus : std::uint8_t {
  kRelinked = 0,      // incremental re-link succeeded
  kRecontracted = 1,  // structure changed; full rebuild succeeded
  kDegraded = 2,      // published flat-serving epoch; retry() recovers
  kRejected = 3,      // malformed event; serving state untouched
  kNoop = 4,          // retry() with nothing to recover
};

struct ApplyResult {
  ApplyStatus status = ApplyStatus::kRejected;
  std::uint64_t epoch = 0;       // epoch serving after the call
  RelinkStatus relink_status = RelinkStatus::kStructureChanged;
  RelinkStats relink;            // meaningful when a re-link was attempted
  std::string error;             // rejection reason / captured fault
};

struct LiveUpdateStats {
  std::uint64_t events_applied = 0;
  std::uint64_t events_rejected = 0;
  std::uint64_t relinks = 0;         // epochs published via re-link
  std::uint64_t recontractions = 0;  // epochs published via full rebuild
  std::uint64_t degradations = 0;    // epochs published without an overlay
  std::uint64_t retries = 0;         // retry() attempts while degraded
  std::uint64_t recoveries = 0;      // retries that restored the overlay
  std::uint64_t epochs_retired = 0;
  RelinkStats last_relink;
};

class LiveOverlay {
 public:
  /// Builds epoch 0 from `tt`: graph + contraction overlay. A fault during
  /// the initial contraction starts the feed degraded (flat serving) — it
  /// never throws out of the constructor for injectable faults.
  explicit LiveOverlay(Timetable tt, LiveOverlayOptions opt = {});

  /// Adopts a pre-built overlay (a MappedSnapshot load) as epoch 0,
  /// skipping the initial contraction entirely — the fast path a restarted
  /// shard takes to be serving warm in milliseconds. The graph reads the
  /// overlay's base functions in place, so no pool is allocated. The
  /// overlay must match `tt`: TdGraph::adopt recomputes every base
  /// function from `tt` and throws LoadError on any difference — a stale
  /// snapshot must fail at startup, not at query time.
  LiveOverlay(Timetable tt, OverlayGraph overlay, LiveOverlayOptions opt = {});

  /// The current epoch; copy the returned pointer ONCE per query and read
  /// everything through it — that copy is the epoch pin.
  std::shared_ptr<const LiveSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Applies one delay event and publishes the next epoch (see header for
  /// the path ladder). Single-writer.
  ApplyResult apply(const DelayEvent& ev);

  /// Re-attempts the overlay build of a degraded epoch (with backoff) and
  /// publishes the recovered epoch on success. kNoop when not degraded.
  ApplyResult retry();

  std::uint64_t epoch() const { return snapshot()->epoch; }
  bool degraded() const { return snapshot()->degraded; }
  /// Consecutive failed rebuilds since the last healthy epoch (the backoff
  /// exponent of the next retry()).
  std::uint32_t failed_attempts() const { return failed_attempts_; }
  /// The backoff the most recent retry() computed (ms) — observable even
  /// when backoff_ms scales it to a sub-millisecond test sleep.
  double last_backoff_ms() const { return last_backoff_ms_; }
  /// Retired epochs still pinned by some reader (weak_ptr accounting).
  std::size_t retired_pinned() const;
  const LiveUpdateStats& stats() const { return stats_; }

 private:
  /// Builds the overlay for (tt, g); witness-free, fault-hooked.
  OverlayGraph contract(const Timetable& tt, const TdGraph& g) const;
  void publish(std::shared_ptr<const LiveSnapshot> next);
  static std::vector<StationId> all_stations(const Timetable& tt);

  /// Next backoff target per the decorrelated-jitter recurrence; single-
  /// writer like retry() itself.
  double next_backoff_ms(double cap);

  LiveOverlayOptions opt_;
  LiveUpdateStats stats_;
  std::uint32_t failed_attempts_ = 0;
  Rng backoff_rng_;
  double prev_backoff_ms_ = 0.0;
  double last_backoff_ms_ = 0.0;
  mutable std::mutex mutex_;  // guards current_ and retired_ only
  std::shared_ptr<const LiveSnapshot> current_;
  mutable std::vector<std::weak_ptr<const LiveSnapshot>> retired_;
};

}  // namespace pconn
