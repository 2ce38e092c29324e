#include "s2s/s2s_query.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace pconn {

namespace {

/// Theorem 3 hook for global queries (target NOT a transfer station):
/// maintains per-(connection, via-station) upper bounds mu and prunes
/// settled transfer nodes that provably cannot improve any via arrival.
struct MuHook {
  static constexpr bool kWantsSettle = true;
  static constexpr bool kWantsAncestors = false;

  const Timetable* tt = nullptr;
  const TdGraph* g = nullptr;
  const DistanceTable* dt = nullptr;
  const std::vector<StationId>* vias = nullptr;
  std::vector<Time> mu;  // [local conn * vias->size() + j]

  void prepare(std::uint32_t width) {
    // assign() reuses the vector's high-water capacity across queries.
    mu.assign(static_cast<std::size_t>(width) * vias->size(), kInfTime);
  }

  bool is_transfer(StationId s) const { return dt->is_transfer(s); }

  SettleAction on_settle(NodeId v, ConnIndex li, Time arr, bool) {
    const StationId sv = g->station_of(v);
    if (!dt->is_transfer(sv)) return SettleAction::kRelax;
    const Time arr_tr = arr + tt->transfer_time(sv);
    Time* row = mu.data() + static_cast<std::size_t>(li) * vias->size();
    bool prune = true;
    for (std::size_t j = 0; j < vias->size(); ++j) {
      const StationId vj = (*vias)[j];
      // Upper bound: arrive at V_j via sv even if a transfer is needed at
      // both sv and V_j.
      const Time d_tr = dt->query(sv, vj, arr_tr);
      if (d_tr != kInfTime) {
        row[j] = std::min(row[j], d_tr + tt->transfer_time(vj));
      }
      // Lower bound through sv without any transfer.
      const Time d = dt->query(sv, vj, arr);
      if (!(d > row[j])) prune = false;  // might still matter for V_j
    }
    return prune ? SettleAction::kPruneNode : SettleAction::kRelax;
  }
};

/// Theorems 3+4 hook for targets that are themselves transfer stations:
/// via(T) = {T}; additionally tracks the gamma lower bound and finishes a
/// connection outright once gamma meets the achievable arrival.
struct TargetHook {
  static constexpr bool kWantsSettle = true;
  static constexpr bool kWantsAncestors = true;

  const Timetable* tt = nullptr;
  const TdGraph* g = nullptr;
  const DistanceTable* dt = nullptr;
  StationId target = kInvalidStation;
  bool enable_target_pruning = true;
  std::vector<Time> mu;     // per local conn
  std::vector<Time> gamma;  // per local conn, lower bound on arr(T, i)
  std::vector<Time> arr_t;  // per local conn, arrival fixed by kFinishConn

  void prepare(std::uint32_t width) {
    mu.assign(width, kInfTime);
    gamma.assign(width, kInfTime);
    arr_t.assign(width, kInfTime);
  }

  bool is_transfer(StationId s) const { return dt->is_transfer(s); }

  SettleAction on_settle(NodeId v, ConnIndex li, Time arr, bool gamma_valid) {
    const StationId sv = g->station_of(v);
    if (!dt->is_transfer(sv)) return SettleAction::kRelax;
    const Time arr_tr = arr + tt->transfer_time(sv);
    const Time d = dt->query(sv, target, arr);        // no transfer at sv
    const Time d_tr = dt->query(sv, target, arr_tr);  // transfer at sv

    if (d != kInfTime) gamma[li] = std::min(gamma[li], d);
    if (d_tr != kInfTime) {
      mu[li] = std::min(mu[li], d_tr + tt->transfer_time(target));
      if (enable_target_pruning && gamma_valid && d_tr == gamma[li]) {
        arr_t[li] = d_tr;  // optimal: upper bound meets the lower bound
        return SettleAction::kFinishConn;
      }
    }
    if (d != kInfTime && d > mu[li]) return SettleAction::kPruneNode;
    return SettleAction::kRelax;
  }
};

}  // namespace

/// Engine-owned per-query scratch: one hook per pool thread, constructed
/// once and re-prepared (capacity-reusing) per query, plus the via DFS and
/// profile merge buffers. The hook types are local to this TU, hence the
/// pimpl.
template <typename Queue>
struct S2sQueryEngineT<Queue>::Scratch {
  std::vector<MuHook> mu_hooks;
  std::vector<TargetHook> target_hooks;
  ViaResult via;
  ViaScratch via_scratch;
  Profile raw;  // merge buffer for the target-transfer path
};

template <typename Queue>
S2sQueryEngineT<Queue>::S2sQueryEngineT(const Timetable& tt, const TdGraph& g,
                                        const StationGraph& sg,
                                        const DistanceTable* dt, S2sOptions opt)
    : tt_(tt),
      g_(g),
      sg_(sg),
      dt_(dt),
      opt_(opt),
      spcs_(tt, g,
            ParallelSpcsOptions{.threads = opt.threads,
                                .partition = opt.partition,
                                .self_pruning = opt.self_pruning,
                                .stopping_criterion = opt.stopping_criterion,
                                .prune_on_relax = opt.prune_on_relax}),
      scratch_(std::make_unique<Scratch>()) {
  scratch_->mu_hooks.resize(opt_.threads);
  scratch_->target_hooks.resize(opt_.threads);
}

template <typename Queue>
S2sQueryEngineT<Queue>::~S2sQueryEngineT() = default;

template <typename Queue>
void S2sQueryEngineT<Queue>::query_into(StationId s, StationId t,
                                        StationQueryResult& out) {
  const bool have_table = dt_ != nullptr && opt_.table_pruning;
  out.stats = QueryStats{};

  // Both endpoints in S_trans: the table already holds the answer.
  if (have_table && s != t && dt_->is_transfer(s) && dt_->is_transfer(t)) {
    last_kind_ = Kind::kTableLookup;
    Timer timer;
    const Profile& p = dt_->profile(s, t);
    out.profile.assign(p.begin(), p.end());
    out.stats.time_ms = timer.elapsed_ms();
    return;
  }

  if (!have_table) {
    last_kind_ = Kind::kPlain;
    spcs_.station_to_station_into(s, t, out);
    return;
  }

  find_via_stations_into(sg_, s, t, dt_->transfer_flags(),
                         scratch_->via_scratch, scratch_->via);
  const ViaResult& via = scratch_->via;
  if (via.local || via.vias.empty()) {
    // Local queries get no table pruning (paper); disconnected targets
    // (no via stations) cannot use the table either.
    last_kind_ = Kind::kLocal;
    spcs_.station_to_station_into(s, t, out);
    return;
  }

  Timer timer;
  const SpcsOptions o{.self_pruning = opt_.self_pruning,
                      .stopping_criterion = opt_.stopping_criterion,
                      .prune_on_relax = opt_.prune_on_relax};

  if (dt_->is_transfer(t)) {
    last_kind_ = Kind::kTargetTransfer;
    std::vector<TargetHook>& hooks = scratch_->target_hooks;
    spcs_.run_partitioned(
        s, [&](std::size_t th, std::uint32_t lo, std::uint32_t hi) {
          TargetHook& hook = hooks[th];
          hook.tt = &tt_;
          hook.g = &g_;
          hook.dt = dt_;
          hook.target = t;
          hook.enable_target_pruning = opt_.target_pruning;
          hook.prepare(hi - lo);
          spcs_.thread_state(th).run(g_, tt_, tt_.outgoing(s), lo, hi, t, o,
                                     hook);
        });
    // Merge matrix labels with the arrivals fixed by target pruning.
    auto conns = tt_.outgoing(s);
    const NodeId tn = g_.station_node(t);
    Profile& raw = scratch_->raw;
    raw.clear();
    raw.reserve(conns.size());
    const auto& b = spcs_.last_boundaries();
    for (std::size_t th = 0; th < hooks.size(); ++th) {
      for (std::uint32_t li = 0; li + b[th] < b[th + 1]; ++li) {
        Time arr = std::min(spcs_.thread_state(th).arrival(tn, li),
                            hooks[th].arr_t[li]);
        raw.push_back({conns[b[th] + li].dep, arr});
      }
    }
    reduce_profile_into(raw, tt_.period(), out.profile);
  } else {
    last_kind_ = Kind::kGlobal;
    std::vector<MuHook>& hooks = scratch_->mu_hooks;
    spcs_.run_partitioned(
        s, [&](std::size_t th, std::uint32_t lo, std::uint32_t hi) {
          MuHook& hook = hooks[th];
          hook.tt = &tt_;
          hook.g = &g_;
          hook.dt = dt_;
          hook.vias = &via.vias;
          hook.prepare(hi - lo);
          spcs_.thread_state(th).run(g_, tt_, tt_.outgoing(s), lo, hi, t, o,
                                     hook);
        });
    spcs_.assemble_profile_into(s, t, out.profile);
  }

  for (unsigned th = 0; th < opt_.threads; ++th) {
    out.stats += spcs_.thread_state(th).stats();
  }
  out.stats.time_ms = timer.elapsed_ms();
}

template <typename Queue>
StationQueryResult S2sQueryEngineT<Queue>::query(StationId s, StationId t) {
  StationQueryResult res;
  query_into(s, t, res);
  return res;
}

// The two shipped queue policies (queue_policy.hpp).
template class S2sQueryEngineT<SpcsBinaryQueue>;
template class S2sQueryEngineT<SpcsBucketQueue>;

}  // namespace pconn
