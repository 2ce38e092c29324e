#include "algo/te_query.hpp"

#include <algorithm>

namespace pconn {

template <typename Queue>
TeTimeQueryT<Queue>::TeTimeQueryT(const TeGraph& g, QueryWorkspace* ws)
    : g_(g),
      heap_(scratch_alloc(ws)),
      dist_(scratch_alloc(ws)),
      best_arrival_(scratch_alloc(ws)) {
  heap_.reset_capacity(g.num_nodes());
  dist_.assign(g.num_nodes(), kInfTime);
  // Station count is not stored in TeGraph; size lazily on first run.
}

template <typename Queue>
void TeTimeQueryT<Queue>::run(StationId source, Time departure,
                              StationId target) {
  stats_ = QueryStats{};
  heap_.clear();
  dist_.clear();
  source_ = source;
  departure_ = departure;

  // Track per-station earliest settled arrival events. Station count is
  // implied by node payloads; size the array once on the first run.
  if (best_arrival_.size() == 0) {
    StationId max_station = source;
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      max_station = std::max(max_station, g_.node(v).station);
    }
    best_arrival_.assign(static_cast<std::size_t>(max_station) + 1, kInfTime);
  }
  best_arrival_.clear();

  auto [entry, wait] = g_.entry_node(source, departure);
  if (entry == kInvalidNode) return;  // no departures at the source at all
  dist_.set(entry, departure + wait);
  heap_.push(entry, departure + wait);
  stats_.pushed++;

  Time target_best = kInfTime;
  while (!heap_.empty()) {
    if (target != kInvalidStation && heap_.top_key() >= target_best) break;
    auto [v, key] = heap_.pop();
    if constexpr (!Queue::kAddressable) {
      // Lazy deletion: an entry is outdated once a shorter distance for its
      // node has been pushed (dist_ only decreases before the node pops).
      if (key > dist_.get(v)) {
        stats_.stale_popped++;
        continue;
      }
    }
    stats_.settled++;
    const TeGraph::Node& node = g_.node(v);
    if (node.kind == TeGraph::NodeKind::kArrival) {
      if (key < best_arrival_.get(node.station)) {
        best_arrival_.set(node.station, key);
        if (node.station == target) target_best = key;
      }
      // Arrival events still relax (stay-seated / off-train edges).
    }
    // The TE edge records are already dense 8-byte (head, weight) pairs;
    // the win here is prefetching the next head's distance slot while the
    // current edge relaxes. Every weight is a constant, so there is no
    // evaluation a gather -> eval -> commit phasing could batch.
    const std::span<const TeGraph::Edge> edges = g_.out_edges(v);
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      if (ei + 1 < edges.size()) dist_.prefetch(edges[ei + 1].head);
      const NodeId head = edges[ei].head;
      const Time t = key + edges[ei].weight;
      stats_.relaxed++;
      if (t < dist_.get(head)) {
        if constexpr (Queue::kAddressable) {
          if (heap_.push_or_decrease(head, t) == QueuePush::kPushed) {
            stats_.pushed++;
          } else {
            stats_.decreased++;
          }
        } else {
          heap_.push(head, t);
          stats_.pushed++;
        }
        dist_.set(head, t);
      }
    }
  }
  heap_.clear();
}

template <typename Queue>
Time TeTimeQueryT<Queue>::arrival_at(StationId s) const {
  if (s == source_) return departure_;
  return s < best_arrival_.size() ? best_arrival_.get(s) : kInfTime;
}

// The two shipped queue policies (queue_policy.hpp).
template class TeTimeQueryT<TimeBinaryQueue>;
template class TeTimeQueryT<TimeBucketQueue>;

}  // namespace pconn
