#include "algo/parallel_spcs.hpp"

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

template <typename Queue>
std::vector<SpcsThreadStateT<Queue>> make_states(
    std::vector<std::unique_ptr<QueryWorkspace>>& ws, ThreadPool& pool) {
  // Before any state grows scratch into its workspace, pin each workspace's
  // arena to the NUMA node of the pool thread that will run on it (NUMA
  // half of the ROADMAP NUMA/THP item; PCONN_NUMA=0 disables, single-node
  // machines are a no-op). The states below are constructed on the master
  // thread, but mbind routes their blocks' pages to the workers' nodes.
  pool.run([&](std::size_t t) {
    ws[t]->arena().set_numa_node(Arena::current_numa_node());
  });
  std::vector<SpcsThreadStateT<Queue>> states;
  states.reserve(ws.size());
  for (auto& w : ws) states.emplace_back(w.get());
  return states;
}

}  // namespace

template <typename Queue>
ParallelSpcsT<Queue>::ParallelSpcsT(const Timetable& tt, const TdGraph& g,
                                    ParallelSpcsOptions opt)
    : tt_(tt),
      g_(g),
      opt_(opt),
      pool_(opt.threads),
      workspaces_(make_workspaces(opt.threads)),
      states_(make_states<Queue>(workspaces_, pool_)),
      thread_ms_(opt.threads, 0.0) {}

template <typename Queue>
ParallelSpcsT<Queue>::~ParallelSpcsT() = default;

template <typename Queue>
void ParallelSpcsT<Queue>::run_partitioned(StationId s, RangeFn fn) {
  auto conns = tt_.outgoing(s);
  partition_connections_into(conns, opt_.threads, opt_.partition, tt_.period(),
                             boundaries_);
  pool_.run([&](std::size_t t) { fn(t, boundaries_[t], boundaries_[t + 1]); });
}

template <typename Queue>
void ParallelSpcsT<Queue>::collect_raw_profile_at(StationId s, NodeId vn,
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

template <typename Queue>
void ParallelSpcsT<Queue>::assemble_profile_into(StationId s, StationId t,
                                                 Profile& out) {
  collect_raw_profile_at(s, g_.station_node(t), raw_scratch_);
  reduce_profile_into(raw_scratch_, tt_.period(), out);
}

template <typename Queue>
Profile ParallelSpcsT<Queue>::assemble_profile(StationId s, StationId t) const {
  Profile raw;
  collect_raw_profile_at(s, g_.station_node(t), raw);
  return reduce_profile(raw, tt_.period());
}

template <typename Queue>
void ParallelSpcsT<Queue>::node_profile_into(StationId s, NodeId v,
                                             Profile& out) {
  collect_raw_profile_at(s, v, raw_scratch_);
  reduce_profile_into(raw_scratch_, tt_.period(), out);
}

template <typename Queue>
Profile ParallelSpcsT<Queue>::node_profile(StationId s, NodeId v) const {
  Profile raw;
  collect_raw_profile_at(s, v, raw);
  return reduce_profile(raw, tt_.period());
}

template <typename Queue>
std::size_t ParallelSpcsT<Queue>::scratch_bytes_reserved() const {
  std::size_t total = 0;
  for (const auto& w : workspaces_) total += w->bytes_reserved();
  return total;
}

template <typename Queue>
void ParallelSpcsT<Queue>::one_to_all_into(StationId s, OneToAllResult& out) {
  Timer total;
  out.stats = QueryStats{};
  out.max_thread_ms = 0.0;
  out.min_thread_ms = 0.0;

  run_partitioned(s, [&](std::size_t t, std::uint32_t lo, std::uint32_t hi) {
    Timer timer;
    NoHook hook;
    SpcsOptions o{.self_pruning = opt_.self_pruning,
                  .stopping_criterion = false,
                  .prune_on_relax = opt_.prune_on_relax};
    states_[t].run(g_, tt_, tt_.outgoing(s), lo, hi, kInvalidStation, o, hook);
    thread_ms_[t] = timer.elapsed_ms();
  });

  // Merge + connection reduction by the master thread (paper Section 3.2).
  // resize keeps each station's Profile object — and its capacity — alive
  // across queries, so a warm session's merge is allocation-free.
  out.profiles.resize(tt_.num_stations());
  for (StationId v = 0; v < tt_.num_stations(); ++v) {
    assemble_profile_into(s, v, out.profiles[v]);
  }

  for (std::size_t t = 0; t < states_.size(); ++t) {
    out.stats += states_[t].stats();
    out.max_thread_ms = std::max(out.max_thread_ms, thread_ms_[t]);
    out.min_thread_ms =
        t == 0 ? thread_ms_[t] : std::min(out.min_thread_ms, thread_ms_[t]);
  }
  out.stats.time_ms = total.elapsed_ms();
}

template <typename Queue>
OneToAllResult ParallelSpcsT<Queue>::one_to_all(StationId s) {
  OneToAllResult res;
  one_to_all_into(s, res);
  return res;
}

template <typename Queue>
void ParallelSpcsT<Queue>::station_to_station_into(StationId s, StationId t,
                                                   StationQueryResult& out) {
  Timer total;
  out.stats = QueryStats{};

  // Each thread walks its range in kSpcsChunk-wide chunks and writes its
  // own disjoint slice of the raw profile; the master reduces once.
  const auto conns = tt_.outgoing(s);
  raw_scratch_.resize(conns.size());
  run_partitioned(s, [&](std::size_t th, std::uint32_t lo, std::uint32_t hi) {
    SpcsOptions o{.self_pruning = opt_.self_pruning,
                  .stopping_criterion = opt_.stopping_criterion,
                  .prune_on_relax = opt_.prune_on_relax};
    states_[th].run_chunked_on(g_, g_, tt_, conns, lo, hi, t, o,
                               raw_scratch_.data());
  });

  reduce_profile_into(raw_scratch_, tt_.period(), out.profile);
  for (const auto& st : states_) out.stats += st.stats();
  out.stats.time_ms = total.elapsed_ms();
}

template <typename Queue>
StationQueryResult ParallelSpcsT<Queue>::station_to_station(StationId s,
                                                            StationId t) {
  StationQueryResult res;
  station_to_station_into(s, t, res);
  return res;
}

// The two shipped queue policies (queue_policy.hpp). Other policies would
// need their own explicit instantiation here.
template class ParallelSpcsT<SpcsBinaryQueue>;
template class ParallelSpcsT<SpcsBucketQueue>;

}  // namespace pconn
