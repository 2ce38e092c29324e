#include "algo/overlay_spcs.hpp"

#include <algorithm>
#include <cassert>

#include "algo/overlay_query.hpp"
#include "util/timer.hpp"

namespace pconn {

namespace {

std::vector<std::unique_ptr<QueryWorkspace>> make_workspaces(unsigned n) {
  std::vector<std::unique_ptr<QueryWorkspace>> ws;
  ws.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    ws.push_back(std::make_unique<QueryWorkspace>());
  }
  return ws;
}

std::vector<SpcsThreadState> make_states(
    std::vector<std::unique_ptr<QueryWorkspace>>& ws) {
  std::vector<SpcsThreadState> states;
  states.reserve(ws.size());
  for (auto& w : ws) states.emplace_back(w.get());
  return states;
}

}  // namespace

OverlayParallelSpcs::OverlayParallelSpcs(const Timetable& tt,
                                         const TdGraph& g,
                                         const OverlayGraph& ov,
                                         ParallelSpcsOptions opt)
    : tt_(tt),
      g_(g),
      ov_(ov),
      opt_(opt),
      pool_(opt.threads),
      workspaces_(make_workspaces(opt.threads)),
      states_(make_states(workspaces_)),
      thread_ms_(opt.threads, 0.0) {
  require_overlay_matches(tt, g, ov);
  sweep_.reserve(opt.threads);
  for (unsigned i = 0; i < opt.threads; ++i) {
    sweep_.push_back(
        std::make_unique<SweepScratch>(scratch_alloc(workspaces_[i].get())));
  }
}

OverlayParallelSpcs::~OverlayParallelSpcs() = default;

void OverlayParallelSpcs::run_partitioned(StationId s, RangeFn fn) {
  auto conns = tt_.outgoing(s);
  partition_connections_into(conns, opt_.threads, opt_.partition, tt_.period(),
                             boundaries_);
  pool_.run([&](std::size_t t) { fn(t, boundaries_[t], boundaries_[t + 1]); });
}

void OverlayParallelSpcs::collect_raw_profile_at(StationId s, NodeId vn,
                                                 Profile& raw) const {
  auto conns = tt_.outgoing(s);
  raw.clear();
  raw.reserve(conns.size());
  for (std::size_t th = 0; th < states_.size(); ++th) {
    const std::uint32_t lo = boundaries_[th], hi = boundaries_[th + 1];
    for (std::uint32_t li = 0; li + lo < hi; ++li) {
      raw.push_back({conns[lo + li].dep, states_[th].arrival(vn, li)});
    }
  }
}

void OverlayParallelSpcs::assemble_profile_into(StationId s, StationId t,
                                                Profile& out) {
  // Stations are core: the ascent labels are final without any sweep.
  collect_raw_profile_at(s, ov_.station_node(t), raw_scratch_);
  reduce_profile_into(raw_scratch_, tt_.period(), out);
}

Profile OverlayParallelSpcs::assemble_profile(StationId s, StationId t) {
  Profile out;
  assemble_profile_into(s, t, out);
  return out;
}

void OverlayParallelSpcs::node_profile_into(StationId s, NodeId v,
                                            Profile& out) {
  assert((swept_ || ov_.is_core(v)) &&
         "contracted nodes need settle_contracted() first");
  collect_raw_profile_at(s, v, raw_scratch_);
  reduce_profile_into(raw_scratch_, tt_.period(), out);
}

Profile OverlayParallelSpcs::node_profile(StationId s, NodeId v) {
  Profile out;
  node_profile_into(s, v, out);
  return out;
}

QueryStats OverlayParallelSpcs::accumulated_stats() const {
  QueryStats total{};
  for (const auto& st : states_) total += st.stats();
  return total;
}

std::size_t OverlayParallelSpcs::scratch_bytes_reserved() const {
  std::size_t total = 0;
  for (const auto& w : workspaces_) total += w->bytes_reserved();
  return total;
}

void OverlayParallelSpcs::one_to_all_into(StationId s, OneToAllResult& out) {
  Timer total;
  out.stats = QueryStats{};
  out.max_thread_ms = 0.0;
  out.min_thread_ms = 0.0;
  full_run_ = false;
  swept_ = false;
  sweep_ms_ = 0.0;

  // Phase 1: partitioned connection-setting ascents over the overlay CSR.
  run_partitioned(s, [&](std::size_t t, std::uint32_t lo, std::uint32_t hi) {
    Timer timer;
    NoHook hook;
    SpcsOptions o{.self_pruning = opt_.self_pruning,
                  .stopping_criterion = false};
    states_[t].run_on(ov_, g_, tt_, tt_.outgoing(s), lo, hi, kInvalidStation,
                      o, hook);
    thread_ms_[t] = timer.elapsed_ms();
  });
  full_run_ = true;

  // Phase 3 (phase 2, the down-sweep, is the caller's opt-in
  // settle_contracted): merge + connection reduction by the master thread,
  // allocation-free when warm, exactly like the flat driver.
  Timer merge_t;
  out.profiles.resize(tt_.num_stations());
  for (StationId v = 0; v < tt_.num_stations(); ++v) {
    assemble_profile_into(s, v, out.profiles[v]);
  }
  merge_ms_ = merge_t.elapsed_ms();

  ascent_ms_ = 0.0;
  for (std::size_t t = 0; t < states_.size(); ++t) {
    out.stats += states_[t].stats();
    ascent_ms_ = std::max(ascent_ms_, thread_ms_[t]);
    out.max_thread_ms = std::max(out.max_thread_ms, thread_ms_[t]);
    out.min_thread_ms =
        t == 0 ? thread_ms_[t] : std::min(out.min_thread_ms, thread_ms_[t]);
  }
  out.stats.time_ms = total.elapsed_ms();
}

OneToAllResult OverlayParallelSpcs::one_to_all(StationId s) {
  OneToAllResult res;
  one_to_all_into(s, res);
  return res;
}

void OverlayParallelSpcs::station_to_station_into(
    StationId s, StationId t, StationQueryResult& out) {
  Timer total;
  out.stats = QueryStats{};
  full_run_ = false;
  swept_ = false;

  const auto conns = tt_.outgoing(s);
  raw_scratch_.resize(conns.size());
  run_partitioned(s, [&](std::size_t th, std::uint32_t lo, std::uint32_t hi) {
    SpcsOptions o{.self_pruning = opt_.self_pruning,
                  .stopping_criterion = opt_.stopping_criterion};
    states_[th].run_chunked_on(ov_, g_, tt_, conns, lo, hi, t, o,
                               raw_scratch_.data());
  });

  reduce_profile_into(raw_scratch_, tt_.period(), out.profile);
  for (const auto& st : states_) out.stats += st.stats();
  out.stats.time_ms = total.elapsed_ms();
}

StationQueryResult OverlayParallelSpcs::station_to_station(
    StationId s, StationId t) {
  StationQueryResult res;
  station_to_station_into(s, t, res);
  return res;
}

void OverlayParallelSpcs::settle_contracted() {
  assert(full_run_ && "settle_contracted needs a full (no-target) run");
  if (swept_) return;  // idempotent: a re-sweep would double relax counts
  Timer t;
  pool_.run([&](std::size_t th) { sweep_partition(th); });
  sweep_ms_ = t.elapsed_ms();
  swept_ = true;
}

void OverlayParallelSpcs::sweep_partition(std::size_t th) {
  SpcsThreadState& st = states_[th];
  const std::size_t W = st.width();
  if (W == 0) return;

  // The thread's label matrix is node-major (slot v * W + li): each node's
  // W connection lanes are one contiguous row, so the sweep extends the
  // matrix in place — the multi-query engine's transposed-copy step
  // (multi_query.cpp settle_contracted_batch) disappears entirely.
  EpochArray<Time>& arr = st.label_matrix();
  Time* const __restrict vals = arr.values_data();
  std::uint32_t* const __restrict eps = arr.epochs_data();
  const std::uint32_t ep = arr.epoch();

  SweepScratch& sc = *sweep_[th];
  sc.raw.resize(W);
  sc.ts.resize(W);
  sc.out.resize(W);
  sc.best.resize(W);
  sc.rcnt.assign(W, 0);
  Time* const __restrict raw = sc.raw.data();
  Time* const __restrict ts_buf = sc.ts.data();
  Time* const __restrict out_buf = sc.out.data();
  Time* const __restrict best = sc.best.data();
  std::uint32_t* const __restrict rcnt = sc.rcnt.data();

  const TtfPool& pool = ov_.ttfs();
  for (std::size_t i = 0; i < ov_.num_contracted(); ++i) {
    const NodeId v = ov_.down_node(i);
    for (std::size_t j = 0; j < W; ++j) best[j] = kInfTime;
    for (std::uint32_t e = ov_.down_begin(i); e < ov_.down_end(i); ++e) {
      const NodeId tail = ov_.down_tail(e);
      const std::size_t base = static_cast<std::size_t>(tail) * W;
      // Pass 1 (fused): per-lane relax accounting (a lane relaxes the edge
      // iff its tail label is finite — the flat sweep protocol) and the
      // clamped entry times the kernel's signed-lane contract needs. A
      // label can be epoch-stamped yet infinite (self-pruned): dead too.
      std::uint32_t cnt = 0;
      for (std::size_t j = 0; j < W; ++j) {
        const Time t0 = eps[base + j] == ep ? vals[base + j] : kInfTime;
        const std::uint32_t live = t0 != kInfTime;
        raw[j] = t0;
        rcnt[j] += live;
        cnt += live;
        ts_buf[j] = live ? t0 : 0;
      }
      if (cnt == 0) continue;
      const std::uint32_t w = ov_.down_word(e);
      if (w & TtfPool::kConstFlag) {
        const Time c = w & ~TtfPool::kConstFlag;
        for (std::size_t j = 0; j < W; ++j) out_buf[j] = ts_buf[j] + c;
      } else {
        pool.arrival_tn(w, ts_buf, W, out_buf);
      }
      // No source fix-up, unlike the station-sourced engines: SPCS sources
      // are route nodes, whose down-edge TTFs carry no folded board cost.
      // Pass 2 (fused): dead lanes masked out, strict-min in edge order.
      for (std::size_t j = 0; j < W; ++j) {
        const bool upd = raw[j] != kInfTime && out_buf[j] < best[j];
        best[j] = upd ? out_buf[j] : best[j];
      }
    }
    // Fold, don't overwrite: the ascent can settle contracted nodes on its
    // way up (sources are contracted), and those labels are achievable
    // arrivals the sweep must not discard.
    const std::size_t base_v = static_cast<std::size_t>(v) * W;
    for (std::size_t j = 0; j < W; ++j) {
      const Time a = eps[base_v + j] == ep ? vals[base_v + j] : kInfTime;
      const Time m = best[j] < a ? best[j] : a;
      if (m != kInfTime) {
        vals[base_v + j] = m;
        eps[base_v + j] = ep;
      }
    }
  }

  QueryStats& stats = st.stats_mutable();
  for (std::size_t j = 0; j < W; ++j) stats.relaxed += rcnt[j];
}

}  // namespace pconn
