#include "algo/mc_query.hpp"

#include <algorithm>

namespace pconn {

namespace {

/// Lexicographic (arrival, boardings) as one integer key.
std::uint64_t mc_key(Time arr, std::uint32_t boards) {
  return (static_cast<std::uint64_t>(arr) << kMcKeyShift) | boards;
}

}  // namespace

template <typename Queue>
McTimeQueryT<Queue>::McTimeQueryT(const Timetable& tt, const TdGraph& g,
                                  QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      queue_(scratch_alloc(ws)),
      fronts_(ArenaAllocator<Front>(scratch_alloc(ws))),
      min_boards_(scratch_alloc(ws)),
      touched_(ArenaAllocator<NodeId>(scratch_alloc(ws))) {
  fronts_.resize(g.num_nodes(), Front(ArenaAllocator<McLabel>(scratch_alloc(ws))));
  min_boards_.assign(g.num_nodes(),
                     std::numeric_limits<std::uint32_t>::max());
  queue_.reset_capacity(g.num_nodes());
}

template <typename Queue>
void McTimeQueryT<Queue>::run(StationId source, Time departure,
                              std::uint32_t max_boards) {
  max_boards = std::min(max_boards, (1u << kMcKeyShift) - 1);
  stats_ = QueryStats{};
  for (NodeId v : touched_) fronts_[v].clear();
  touched_.clear();
  min_boards_.clear();
  queue_.clear();

  const NodeId src = g_.station_node(source);
  queue_.push(src, mc_key(departure, 0));
  stats_.pushed++;

  while (!queue_.empty()) {
    auto [node, key] = queue_.pop();
    const Time arr = static_cast<Time>(key >> kMcKeyShift);
    const std::uint32_t boards =
        static_cast<std::uint32_t>(key & ((1u << kMcKeyShift) - 1));
    stats_.settled++;
    // Lexicographic pop order: Pareto-new iff it improves the boarding
    // minimum at the node.
    if (boards >= min_boards_.get(node)) continue;
    min_boards_.set(node, boards);
    if (fronts_[node].empty()) touched_.push_back(node);
    fronts_[node].push_back({arr, boards});

    // SoA relax: the domination test runs on the streamed head before the
    // TTF evaluation. One body: a node carries at most one travel function
    // (see time_query.cpp), so there is no batch to phase.
    const std::uint32_t eb = g_.edge_begin(node);
    const std::uint32_t ee = g_.edge_end(node);
    const NodeId* const heads = g_.heads_data();
    const std::uint32_t* const words = g_.words_data();
    const bool from_station = g_.is_station_node(node);
    for (std::uint32_t ei = eb; ei < ee; ++ei) {
      if (ei + 1 < ee) {
        min_boards_.prefetch(heads[ei + 1]);
        g_.prefetch_edge_ttf(ei + 1);
      }
      const NodeId head = heads[ei];
      const std::uint32_t w = words[ei];
      const bool boarding = from_station && TdGraph::word_is_const(w);
      std::uint32_t next_boards = boards + (boarding ? 1 : 0);
      if (next_boards > max_boards) continue;
      if (next_boards >= min_boards_.get(head)) continue;  // dominated
      // Boarding at the source itself is free of the transfer time but
      // still counts as boarding a vehicle.
      Time t = (node == src && TdGraph::word_is_const(w))
                   ? arr
                   : g_.arrival_by_word(w, arr);
      if (t == kInfTime) continue;
      stats_.relaxed++;
      queue_.push(head, mc_key(t, next_boards));
      stats_.pushed++;
    }
  }
}

template <typename Queue>
std::span<const McLabel> McTimeQueryT<Queue>::pareto(StationId s) const {
  const auto& f = fronts_[g_.station_node(s)];
  return {f.data(), f.size()};
}

// The two shipped multi-label policies (queue_policy.hpp).
template class McTimeQueryT<McBinaryQueue>;
template class McTimeQueryT<McBucketQueue>;

}  // namespace pconn
