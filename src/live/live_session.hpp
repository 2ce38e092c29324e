// LiveQuerySession — a QuerySession that follows a LiveOverlay's epochs.
//
// Reader half of the RCU pair (live_overlay.hpp): each query pins the
// freshest snapshot (one shared_ptr copy — the epoch pin), routes through
// the overlay engines when the epoch has an overlay and through the flat
// engines when it is degraded (overlay-bypassed stations still get exact
// answers, just slower), and answers entirely from the pinned epoch — a
// writer publishing mid-query never moves the ground under a reader.
//
// Epoch transitions reuse the underlying session via rebind(): engines are
// rebuilt lazily against the new world while the workspace arena and
// result buffers keep their storage, so a session stays at steady-state
// footprint across any number of epochs and queries are allocation-free
// once re-warmed (tests/live_test.cpp guards both).
//
// Single-owner like QuerySession: one LiveQuerySession per application
// thread, all sharing one LiveOverlay.
#pragma once

#include <memory>

#include "algo/session.hpp"
#include "live/live_overlay.hpp"

namespace pconn {

class LiveQuerySession {
 public:
  explicit LiveQuerySession(const LiveOverlay& live,
                            QuerySessionOptions opt = {})
      : live_(live),
        pinned_(live.snapshot()),
        session_(*pinned_->tt, *pinned_->graph, opt) {}

  /// Pins the freshest epoch; returns true when the session moved (and was
  /// rebound). Called automatically at each query entry unless the owner
  /// opted into manual pinning (set_auto_refresh(false) — e.g. to keep
  /// answering a batch from one consistent epoch while the writer
  /// publishes).
  bool refresh() {
    std::shared_ptr<const LiveSnapshot> cur = live_.snapshot();
    if (cur == pinned_) return false;
    pinned_ = std::move(cur);
    session_.rebind(*pinned_->tt, *pinned_->graph);
    return true;
  }

  void set_auto_refresh(bool on) { auto_refresh_ = on; }

  /// The epoch this session currently answers from.
  const LiveSnapshot& pinned() const { return *pinned_; }
  std::uint64_t epoch() const { return pinned_->epoch; }
  /// True when the pinned epoch serves through the flat engines.
  bool serving_degraded() const { return pinned_->degraded; }

  /// Escape hatch to the full engine surface of the pinned epoch.
  QuerySession& session() { return session_; }

  // --- queries (overlay-routed when available, flat when bypassed; both
  // --- paths are exact and byte-identical at stations) -------------------

  const OneToAllResult& one_to_all(StationId s) {
    maybe_refresh();
    if (pinned_->overlay != nullptr) {
      session_.overlay_spcs_engine(*pinned_->overlay);
      return session_.overlay_one_to_all(s);
    }
    return session_.one_to_all(s);
  }

  const StationQueryResult& station_to_station(StationId s, StationId t) {
    maybe_refresh();
    if (pinned_->overlay != nullptr) {
      session_.overlay_spcs_engine(*pinned_->overlay);
      return session_.overlay_station_to_station(s, t);
    }
    return session_.station_to_station(s, t);
  }

  Time earliest_arrival(StationId source, Time departure, StationId target) {
    maybe_refresh();
    if (pinned_->overlay != nullptr) {
      session_.overlay_time_engine(*pinned_->overlay);
      return session_.overlay_earliest_arrival(source, departure, target);
    }
    return session_.earliest_arrival(source, departure, target);
  }

  const Journey* journey(StationId source, Time departure, StationId target) {
    maybe_refresh();
    if (pinned_->overlay != nullptr) {
      session_.overlay_time_engine(*pinned_->overlay);
      return session_.overlay_journey(source, departure, target);
    }
    return session_.journey(source, departure, target);
  }

 private:
  void maybe_refresh() {
    if (auto_refresh_) refresh();
  }

  const LiveOverlay& live_;
  std::shared_ptr<const LiveSnapshot> pinned_;
  QuerySession session_;
  bool auto_refresh_ = true;
};

}  // namespace pconn
