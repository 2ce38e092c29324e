#include "live/live_overlay.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

namespace pconn {

LiveOverlay::LiveOverlay(Timetable tt, LiveOverlayOptions opt)
    : opt_(std::move(opt)), backoff_rng_(opt_.backoff_seed) {
  // Witness pruning would bake cost bounds into the overlay structure and
  // break re-link exactness; live overlays always contract without it.
  opt_.contraction.witness_settles = 0;
  opt_.contraction.faults = opt_.faults;

  auto tt_ptr = std::make_shared<const Timetable>(std::move(tt));
  TdGraph g = TdGraph::build(*tt_ptr);
  auto snap = std::make_shared<LiveSnapshot>();
  snap->epoch = 0;
  snap->tt = tt_ptr;
  try {
    snap->overlay =
        std::make_shared<const OverlayGraph>(contract(*tt_ptr, g));
    snap->graph = std::make_shared<const TdGraph>(g.rebased(*snap->overlay));
  } catch (const std::exception&) {
    // Injected fault / allocation failure during the initial build: start
    // degraded — flat engines are exact, retry() restores the overlay.
    snap->overlay = nullptr;
    snap->graph = std::make_shared<const TdGraph>(std::move(g));
    snap->degraded = true;
    snap->bypassed_stations = all_stations(*tt_ptr);
    ++stats_.degradations;
    ++failed_attempts_;
  }
  current_ = std::move(snap);
}

LiveOverlay::LiveOverlay(Timetable tt, OverlayGraph overlay,
                         LiveOverlayOptions opt)
    : opt_(std::move(opt)), backoff_rng_(opt_.backoff_seed) {
  opt_.contraction.witness_settles = 0;  // same invariant as the build path
  opt_.contraction.faults = opt_.faults;

  auto tt_ptr = std::make_shared<const Timetable>(std::move(tt));
  // Checks the overlay's base functions against the timetable, so a stale
  // snapshot fails here, before the first query pins the epoch.
  auto g_ptr =
      std::make_shared<const TdGraph>(TdGraph::adopt(*tt_ptr, overlay));
  auto snap = std::make_shared<LiveSnapshot>();
  snap->epoch = 0;
  snap->tt = tt_ptr;
  snap->graph = g_ptr;
  snap->overlay = std::make_shared<const OverlayGraph>(std::move(overlay));
  current_ = std::move(snap);
}

OverlayGraph LiveOverlay::contract(const Timetable& tt,
                                   const TdGraph& g) const {
  return contract_graph(tt, g, opt_.contraction);
}

double LiveOverlay::next_backoff_ms(double cap) {
  if (!opt_.backoff_jitter) {
    const std::uint32_t exp =
        std::min(failed_attempts_ - 1, opt_.max_backoff_exp);
    return std::min(cap, opt_.backoff_ms * static_cast<double>(1u << exp));
  }
  // Decorrelated jitter: sleep_k = min(cap, uniform(base, 3 * sleep_{k-1})).
  // First attempt sleeps exactly the base; the expected value then grows
  // ~1.5x per attempt while successive sleeps decorrelate across feeds.
  const double base = opt_.backoff_ms;
  const double hi = std::max(base, 3.0 * prev_backoff_ms_);
  const double ms =
      std::min(cap, base + backoff_rng_.next_double() * (hi - base));
  prev_backoff_ms_ = ms;
  return ms;
}

std::vector<StationId> LiveOverlay::all_stations(const Timetable& tt) {
  std::vector<StationId> all(tt.num_stations());
  for (StationId s = 0; s < all.size(); ++s) all[s] = s;
  return all;
}

void LiveOverlay::publish(std::shared_ptr<const LiveSnapshot> next) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (current_) {
    retired_.push_back(current_);
    ++stats_.epochs_retired;
  }
  // Prune epochs no reader pins anymore (the weak_ptrs expire on their
  // own; this just keeps the bookkeeping vector bounded).
  std::erase_if(retired_,
                [](const std::weak_ptr<const LiveSnapshot>& w) {
                  return w.expired();
                });
  current_ = std::move(next);
}

std::size_t LiveOverlay::retired_pinned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& w : retired_) {
    if (!w.expired()) ++n;
  }
  return n;
}

ApplyResult LiveOverlay::apply(const DelayEvent& ev) {
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  ApplyResult res;

  // 0. Validate by replaying the published timetable with the event folded
  // in. A malformed event dies here — nothing published, serving state
  // untouched (the "malformed event" degradation path is a rejection).
  std::shared_ptr<const Timetable> tt_new;
  TdGraph g_new;
  try {
    tt_new = std::make_shared<const Timetable>(apply_event(*cur->tt, ev));
    g_new = TdGraph::build(*tt_new);
  } catch (const std::exception& e) {
    ++stats_.events_rejected;
    res.status = ApplyStatus::kRejected;
    res.epoch = cur->epoch;
    res.error = e.what();
    return res;
  }
  ++stats_.events_applied;

  auto next = std::make_shared<LiveSnapshot>();
  next->epoch = cur->epoch + 1;
  next->tt = tt_new;
  res.epoch = next->epoch;

  // 1. Incremental re-link off the healthy overlay.
  if (cur->overlay != nullptr && !cur->degraded) {
    try {
      RelinkResult r =
          relink_overlay(*tt_new, g_new, *cur->graph, *cur->overlay,
                         opt_.relink);
      res.relink_status = r.status;
      res.relink = r.stats;
      stats_.last_relink = r.stats;
      if (r.status == RelinkStatus::kRelinked) {
        next->overlay =
            std::make_shared<const OverlayGraph>(std::move(r.overlay));
        next->graph =
            std::make_shared<const TdGraph>(g_new.rebased(*next->overlay));
        ++stats_.relinks;
        failed_attempts_ = 0;
        prev_backoff_ms_ = 0.0;
        publish(std::move(next));
        res.status = ApplyStatus::kRelinked;
        return res;
      }
      if (r.status == RelinkStatus::kStructureChanged) {
        // 2. The perturbation changed the graph's structure (route split,
        // cancelled/extra trip): re-contract from scratch.
        next->overlay = std::make_shared<const OverlayGraph>(
            contract(*tt_new, g_new));
        next->graph =
            std::make_shared<const TdGraph>(g_new.rebased(*next->overlay));
        ++stats_.recontractions;
        failed_attempts_ = 0;
        prev_backoff_ms_ = 0.0;
        publish(std::move(next));
        res.status = ApplyStatus::kRecontracted;
        return res;
      }
      // Blast radius / deadline: fall through to degradation.
      res.error = r.status == RelinkStatus::kBlastRadiusExceeded
                      ? "re-link blast radius exceeded"
                      : "re-link deadline exceeded";
    } catch (const std::exception& e) {
      // Injected fault or allocation failure mid-rebuild.
      res.error = e.what();
    }
  }

  // 3. Degrade: publish the new timetable WITHOUT an overlay. The flat
  // engines serve every station exactly; retry() rebuilds in background.
  // The graph keeps its own pool.
  next->overlay = nullptr;
  next->graph = std::make_shared<const TdGraph>(std::move(g_new));
  next->degraded = true;
  next->bypassed_stations = all_stations(*tt_new);
  ++stats_.degradations;
  ++failed_attempts_;
  publish(std::move(next));
  res.status = ApplyStatus::kDegraded;
  return res;
}

ApplyResult LiveOverlay::retry() {
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  ApplyResult res;
  res.epoch = cur->epoch;
  if (!cur->degraded) {
    res.status = ApplyStatus::kNoop;
    return res;
  }
  ++stats_.retries;
  if (failed_attempts_ > 0) {
    const double cap =
        opt_.backoff_ms * static_cast<double>(1u << opt_.max_backoff_exp);
    const double ms = next_backoff_ms(cap);
    last_backoff_ms_ = ms;
    if (opt_.backoff_ms > 0.0 && ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
  }
  try {
    auto next = std::make_shared<LiveSnapshot>();
    next->epoch = cur->epoch + 1;
    // Recovery reuses the degraded epoch's timetable and graph structure;
    // the graph now reads the new overlay's base prefix.
    next->tt = cur->tt;
    next->overlay = std::make_shared<const OverlayGraph>(
        contract(*cur->tt, *cur->graph));
    next->graph =
        std::make_shared<const TdGraph>(cur->graph->rebased(*next->overlay));
    ++stats_.recoveries;
    failed_attempts_ = 0;
    prev_backoff_ms_ = 0.0;
    res.epoch = next->epoch;
    publish(std::move(next));
    res.status = ApplyStatus::kRecontracted;
    return res;
  } catch (const std::exception& e) {
    // Still failing: stay on the degraded epoch, deepen the backoff.
    ++failed_attempts_;
    res.status = ApplyStatus::kDegraded;
    res.error = e.what();
    return res;
  }
}

}  // namespace pconn
