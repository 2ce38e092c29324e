#include "algo/parallel_spcs.hpp"

#include <algorithm>
#include <cassert>

#include "algo/overlay_spcs.hpp"
#include "graph/overlay_graph.hpp"
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

ParallelSpcs::ParallelSpcs(const Timetable& tt, const TdGraph& g,
                           ParallelSpcsOptions opt)
    : tt_(tt),
      g_(g),
      opt_(opt),
      pool_(opt.threads),
      workspaces_(make_workspaces(opt.threads)),
      states_(make_states(workspaces_)),
      thread_ms_(opt.threads, 0.0) {}

ParallelSpcs::ParallelSpcs(const Timetable& tt, const TdGraph& g,
                           const OverlayGraph& ov, ParallelSpcsOptions opt)
    : ParallelSpcs(tt, g, opt) {
  require_overlay_matches(tt, g, ov);
  ov_ = &ov;
  sweep_.reserve(opt.threads);
  for (unsigned i = 0; i < opt.threads; ++i) {
    sweep_.push_back(
        std::make_unique<SweepScratch>(scratch_alloc(workspaces_[i].get())));
  }
}

ParallelSpcs::~ParallelSpcs() = default;

void ParallelSpcs::run_partitioned(StationId s, RangeFn fn) {
  auto conns = tt_.outgoing(s);
  partition_connections_into(conns, opt_.threads, opt_.partition, tt_.period(),
                             boundaries_);
  pool_.run([&](std::size_t t) { fn(t, boundaries_[t], boundaries_[t + 1]); });
}

void ParallelSpcs::collect_raw_profile_at(StationId s, NodeId vn,
                                          Profile& raw) const {
  assert((!ov_ || swept_ || ov_->is_core(vn)) &&
         "contracted nodes need settle_contracted() first");
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

void ParallelSpcs::assemble_profile_into(StationId s, StationId t,
                                         Profile& out) {
  collect_raw_profile_at(s, g_.station_node(t), raw_scratch_);
  reduce_profile_into(raw_scratch_, tt_.period(), out);
}

Profile ParallelSpcs::assemble_profile(StationId s, StationId t) const {
  Profile raw;
  collect_raw_profile_at(s, g_.station_node(t), raw);
  return reduce_profile(raw, tt_.period());
}

void ParallelSpcs::node_profile_into(StationId s, NodeId v, Profile& out) {
  collect_raw_profile_at(s, v, raw_scratch_);
  reduce_profile_into(raw_scratch_, tt_.period(), out);
}

Profile ParallelSpcs::node_profile(StationId s, NodeId v) const {
  Profile raw;
  collect_raw_profile_at(s, v, raw);
  return reduce_profile(raw, tt_.period());
}

QueryStats ParallelSpcs::accumulated_stats() const {
  QueryStats total{};
  for (const auto& st : states_) total += st.stats();
  return total;
}

std::size_t ParallelSpcs::scratch_bytes_reserved() const {
  std::size_t total = 0;
  for (const auto& w : workspaces_) total += w->bytes_reserved();
  return total;
}

void ParallelSpcs::one_to_all_into(StationId s, OneToAllResult& out) {
  Timer total;
  out.stats = QueryStats{};
  out.max_thread_ms = 0.0;
  out.min_thread_ms = 0.0;
  swept_ = false;
  sweep_ms_ = 0.0;

  // Partitioned connection-setting ascents over this engine's graph, picked
  // once per query; the relax loop itself never branches on it.
  auto ascend = [&](const auto& graph) {
    run_partitioned(s, [&](std::size_t t, std::uint32_t lo, std::uint32_t hi) {
      Timer timer;
      NoHook hook;
      SpcsOptions o{.self_pruning = opt_.self_pruning,
                    .stopping_criterion = false};
      states_[t].run_on(graph, g_, tt_, tt_.outgoing(s), lo, hi,
                        kInvalidStation, o, hook);
      thread_ms_[t] = timer.elapsed_ms();
    });
  };
  ov_ ? ascend(*ov_) : ascend(g_);
  full_run_ = true;

  // Merge + connection reduction by the master thread (paper Section 3.2).
  // Stations are core, so overlay labels are final without any sweep.
  // resize keeps each station's Profile object — and its capacity — alive
  // across queries, so a warm session's merge is allocation-free.
  Timer merge_t;
  out.profiles.resize(tt_.num_stations());
  for (StationId v = 0; v < tt_.num_stations(); ++v) {
    assemble_profile_into(s, v, out.profiles[v]);
  }
  merge_ms_ = merge_t.elapsed_ms();

  for (std::size_t t = 0; t < states_.size(); ++t) {
    out.stats += states_[t].stats();
    out.max_thread_ms = std::max(out.max_thread_ms, thread_ms_[t]);
    out.min_thread_ms =
        t == 0 ? thread_ms_[t] : std::min(out.min_thread_ms, thread_ms_[t]);
  }
  out.stats.time_ms = total.elapsed_ms();
}

OneToAllResult ParallelSpcs::one_to_all(StationId s) {
  OneToAllResult res;
  one_to_all_into(s, res);
  return res;
}

void ParallelSpcs::station_to_station_into(StationId s, StationId t,
                                           StationQueryResult& out) {
  Timer total;
  out.stats = QueryStats{};
  full_run_ = false;
  swept_ = false;

  // Each thread walks its range in kSpcsChunk-wide chunks and writes its
  // own disjoint slice of the raw profile; the master reduces once.
  // Targets are stations, hence core: the overlay run needs no sweep.
  const auto conns = tt_.outgoing(s);
  raw_scratch_.resize(conns.size());
  auto ascend = [&](const auto& graph) {
    run_partitioned(s, [&](std::size_t th, std::uint32_t lo, std::uint32_t hi) {
      SpcsOptions o{.self_pruning = opt_.self_pruning,
                    .stopping_criterion = opt_.stopping_criterion};
      states_[th].run_chunked_on(graph, g_, tt_, conns, lo, hi, t, o,
                                 raw_scratch_.data());
    });
  };
  ov_ ? ascend(*ov_) : ascend(g_);

  reduce_profile_into(raw_scratch_, tt_.period(), out.profile);
  for (const auto& st : states_) out.stats += st.stats();
  out.stats.time_ms = total.elapsed_ms();
}

StationQueryResult ParallelSpcs::station_to_station(StationId s, StationId t) {
  StationQueryResult res;
  station_to_station_into(s, t, res);
  return res;
}

}  // namespace pconn
