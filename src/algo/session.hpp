// QuerySession — the unified "construct once, query many times" front door
// to every engine in the library.
//
// The paper's speedups assume a server answering streams of queries; a
// session is what such a server keeps per worker thread. It owns
//  * the per-thread QueryWorkspaces (arenas) all engine scratch lives in,
//  * the engines themselves — lazily constructed on first use, then kept
//    warm as cheap views over the workspaces,
//  * reusable result buffers for the allocation-free query API.
// After a warm-up query of each kind, steady-state queries perform no heap
// allocations (tests/session_test.cpp proves this with a global
// operator-new guard; since PR 3 this includes the LC baseline, whose
// profile-merge scratch is arena-pooled).
//
// Threading rules (see docs/architecture.md): a session is single-owner —
// construct one per application thread and do not share it. The parallel
// engines inside (ParallelSpcs and friends) still fan out over their own
// thread pool; that parallelism is internal and safe.
//
// Results returned by reference (`const OneToAllResult&` etc.) live in the
// session; each query kind has its own buffer, overwritten by the next
// query of that kind — copy results out before re-querying the same kind.
#pragma once

#include <cassert>
#include <memory>
#include <span>

#include "algo/journey.hpp"
#include "algo/lc_profile.hpp"
#include "algo/mc_query.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/time_query.hpp"
#include "algo/workspace.hpp"
#include "s2s/s2s_query.hpp"

namespace pconn {

struct QuerySessionOptions {
  unsigned threads = 1;
  PartitionStrategy partition = PartitionStrategy::kEqualConnections;
  bool self_pruning = true;
  bool stopping_criterion = true;
  bool table_pruning = true;   // s2s engine only
  bool target_pruning = true;  // s2s engine only
  // Relax body of the LC baseline (lc_engine), the only engine with two
  // (algo/relax_batch.hpp).
  RelaxMode relax = RelaxMode::kBatch;

  /// `relax`, for callers that hand it to TimeQuery's no-op
  /// set_relax_options.
  RelaxMode relax_options() const { return relax; }
  ParallelSpcsOptions spcs() const {
    return {.threads = threads,
            .partition = partition,
            .self_pruning = self_pruning,
            .stopping_criterion = stopping_criterion};
  }
  S2sOptions s2s() const {
    return {.threads = threads,
            .partition = partition,
            .self_pruning = self_pruning,
            .stopping_criterion = stopping_criterion,
            .table_pruning = table_pruning,
            .target_pruning = target_pruning};
  }
};

class QuerySession {
 public:
  QuerySession(const Timetable& tt, const TdGraph& g,
               QuerySessionOptions opt = {})
      : tt_(&tt), g_(&g), opt_(opt) {}

  const Timetable& timetable() const { return *tt_; }
  const TdGraph& graph() const { return *g_; }
  const QuerySessionOptions& options() const { return opt_; }

  /// Rebinds the session to a new (timetable, graph) world — the epoch
  /// transition of the live-update subsystem (src/live/). Every engine is a
  /// view over the old world, so all engines are dropped and rebuilt lazily
  /// on next use; the workspace arena rewinds its blocks without releasing
  /// them and the result buffers keep their capacity, so a session returns
  /// to its steady-state footprint instead of growing one arena per epoch.
  /// The first query of each kind after a rebind re-warms; queries after
  /// that are allocation-free again (tests/live_test.cpp guards this).
  /// Must not be called while a query is running.
  void rebind(const Timetable& tt, const TdGraph& g) {
    tt_ = &tt;
    g_ = &g;
    spcs_.reset();
    time_.reset();
    lc_.reset();
    mc_.reset();
    ov_time_.reset();
    ov_time_graph_ = nullptr;
    ov_spcs_.reset();
    ov_spcs_graph_ = nullptr;
    s2s_.reset();
    s2s_sg_ = nullptr;
    s2s_dt_ = nullptr;
    // All engine scratch above lived in ws_ (or in per-engine workspaces
    // that died with their engine); with the views gone the arena can
    // rewind in place.
    ws_.arena().reset();
  }

  // --- engine views (lazily constructed, persistent, workspace-backed) ---

  ParallelSpcs& profile_engine() {
    if (!spcs_) spcs_ = std::make_unique<ParallelSpcs>(*tt_, *g_, opt_.spcs());
    return *spcs_;
  }

  TimeQuery& time_engine() {
    if (!time_) time_ = std::make_unique<TimeQuery>(*tt_, *g_, &ws_);
    return *time_;
  }

  LcProfileQuery& lc_engine() {
    if (!lc_) {
      lc_ = std::make_unique<LcProfileQuery>(*tt_, *g_, &ws_);
      lc_->set_relax_mode(opt_.relax);
    }
    return *lc_;
  }

  McTimeQuery& mc_engine() {
    if (!mc_) mc_ = std::make_unique<McTimeQuery>(*tt_, *g_, &ws_);
    return *mc_;
  }

  /// The core-routed engines need a contraction overlay
  /// (contract_graph()). They bind to the overlay passed first; a
  /// *different* overlay recreates the engine — meant for startup-time
  /// configuration, not per-request switching: the retired engine's
  /// scratch stays in the session arena (monotone, no per-object free)
  /// until the session itself is destroyed.
  TimeQuery& overlay_time_engine(const OverlayGraph& ov) {
    if (!ov_time_ || ov_time_graph_ != &ov) {
      ov_time_ = std::make_unique<TimeQuery>(*tt_, *g_, ov, &ws_);
      ov_time_graph_ = &ov;
    }
    return *ov_time_;
  }

  /// Overlay-routed parallel SPCS (algo/overlay_spcs.hpp): the profile
  /// engine with its ascents over the contracted core,
  /// byte-identical station profiles. Binds to the overlay passed first,
  /// like overlay_time_engine().
  ParallelSpcs& overlay_spcs_engine(const OverlayGraph& ov) {
    if (!ov_spcs_ || ov_spcs_graph_ != &ov) {
      ov_spcs_ = std::make_unique<ParallelSpcs>(*tt_, *g_, ov, opt_.spcs());
      ov_spcs_graph_ = &ov;
    }
    return *ov_spcs_;
  }

  /// The accelerated s2s engine needs the station graph and (optionally) a
  /// distance table; binds to the pair passed first (a different pair
  /// recreates it). `dt` may be nullptr.
  S2sQueryEngine& s2s_engine(const StationGraph& sg, const DistanceTable* dt) {
    if (!s2s_ || s2s_sg_ != &sg || s2s_dt_ != dt) {
      s2s_ = std::make_unique<S2sQueryEngine>(*tt_, *g_, sg, dt, opt_.s2s());
      s2s_sg_ = &sg;
      s2s_dt_ = dt;
    }
    return *s2s_;
  }

  // --- unified query API (allocation-free once warm; every kind has its
  // --- own result buffer, overwritten by the next query of that kind) ---

  /// One-to-all profile query dist(S, ·, ·) (paper Table 1 workload).
  const OneToAllResult& one_to_all(StationId s) {
    profile_engine().one_to_all_into(s, one_to_all_buf_);
    return one_to_all_buf_;
  }

  /// Station-to-station profile query, stopping criterion only.
  const StationQueryResult& station_to_station(StationId s, StationId t) {
    profile_engine().station_to_station_into(s, t, station_buf_);
    return station_buf_;
  }

  /// One-to-all profile query routed over the contracted core; requires a
  /// prior overlay_spcs_engine(ov) call to bind the overlay. Profiles are
  /// byte-identical to one_to_all() (separate result buffer, so the two
  /// can be compared directly).
  const OneToAllResult& overlay_one_to_all(StationId s) {
    assert(ov_spcs_ && "bind the overlay with overlay_spcs_engine(ov) first");
    ov_spcs_->one_to_all_into(s, overlay_one_to_all_buf_);
    return overlay_one_to_all_buf_;
  }

  /// Overlay-routed station-to-station profile query (stopping criterion
  /// only); requires a bound overlay_spcs_engine.
  const StationQueryResult& overlay_station_to_station(StationId s,
                                                       StationId t) {
    assert(ov_spcs_ && "bind the overlay with overlay_spcs_engine(ov) first");
    ov_spcs_->station_to_station_into(s, t, overlay_station_buf_);
    return overlay_station_buf_;
  }

  /// Station-to-station profile query with the Section-4 accelerations;
  /// requires a prior s2s_engine(sg, dt) call to bind the station graph.
  const StationQueryResult& s2s_query(StationId s, StationId t) {
    assert(s2s_ && "bind the station graph with s2s_engine(sg, dt) first");
    s2s_->query_into(s, t, s2s_buf_);
    return s2s_buf_;
  }

  /// Earliest arrival at `target` departing `source` at `departure`
  /// (kInvalidStation target: settle everything, query later via
  /// time_engine().arrival_at).
  Time earliest_arrival(StationId source, Time departure,
                        StationId target = kInvalidStation) {
    return arrival_on(time_engine(), source, departure, target);
  }

  /// Full journey extraction for one departure; nullptr when unreachable.
  const Journey* journey(StationId source, Time departure, StationId target) {
    return journey_on(time_engine(), source, departure, target);
  }

  /// Earliest arrival through the contraction overlay; byte-identical to
  /// earliest_arrival() but settles the core only. Requires a prior
  /// overlay_time_engine(ov) call to bind the overlay.
  Time overlay_earliest_arrival(StationId source, Time departure,
                                StationId target = kInvalidStation) {
    assert(ov_time_ && "bind the overlay with overlay_time_engine(ov) first");
    return arrival_on(*ov_time_, source, departure, target);
  }

  /// Journey extraction through the overlay (shortcuts expanded back to
  /// the exact flat legs); nullptr when unreachable.
  const Journey* overlay_journey(StationId source, Time departure,
                                 StationId target) {
    assert(ov_time_ && "bind the overlay with overlay_time_engine(ov) first");
    return journey_on(*ov_time_, source, departure, target);
  }

  /// Pareto front over (arrival, boardings) at `target`.
  std::span<const McLabel> pareto(StationId source, Time departure,
                                  StationId target,
                                  std::uint32_t max_boards = 16) {
    mc_engine().run(source, departure, max_boards);
    return mc_engine().pareto(target);
  }

  // --- memory accounting ---

  /// Arena bytes pinned by this session: its own workspace plus the
  /// per-thread workspaces of every parallel engine it has constructed
  /// (profile, overlay profile, s2s) — the capacity-planning number.
  std::size_t scratch_bytes_reserved() const {
    std::size_t total = ws_.bytes_reserved();
    if (spcs_) total += spcs_->scratch_bytes_reserved();
    if (ov_spcs_) total += ov_spcs_->scratch_bytes_reserved();
    if (s2s_) total += s2s_->scratch_bytes_reserved();
    return total;
  }

 private:
  // The bodies of the flat and overlay-routed EA and journey queries.
  static Time arrival_on(TimeQuery& q, StationId source, Time departure,
                         StationId target) {
    q.run(source, departure, target);
    return target == kInvalidStation ? departure : q.arrival_at(target);
  }
  const Journey* journey_on(TimeQuery& q, StationId source, Time departure,
                            StationId target) {
    q.run(source, departure, target);
    return q.extract_journey_into(source, departure, target, journey_buf_)
               ? &journey_buf_
               : nullptr;
  }

  const Timetable* tt_;
  const TdGraph* g_;
  QuerySessionOptions opt_;

  // Workspace of the single-threaded engines. The parallel engines own one
  // workspace per pool thread internally.
  QueryWorkspace ws_;

  std::unique_ptr<ParallelSpcs> spcs_;
  std::unique_ptr<TimeQuery> time_;
  std::unique_ptr<LcProfileQuery> lc_;
  std::unique_ptr<McTimeQuery> mc_;
  std::unique_ptr<TimeQuery> ov_time_;
  const OverlayGraph* ov_time_graph_ = nullptr;
  std::unique_ptr<ParallelSpcs> ov_spcs_;
  const OverlayGraph* ov_spcs_graph_ = nullptr;
  std::unique_ptr<S2sQueryEngine> s2s_;
  const StationGraph* s2s_sg_ = nullptr;
  const DistanceTable* s2s_dt_ = nullptr;

  // Reusable result buffers for the query API above, one per query kind.
  OneToAllResult one_to_all_buf_;
  OneToAllResult overlay_one_to_all_buf_;
  StationQueryResult station_buf_;
  StationQueryResult overlay_station_buf_;
  StationQueryResult s2s_buf_;
  Journey journey_buf_;
};

}  // namespace pconn
