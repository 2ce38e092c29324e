#include "algo/time_query.hpp"

namespace pconn {

template <typename Queue>
TimeQueryT<Queue>::TimeQueryT(const Timetable& tt, const TdGraph& g,
                              QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      heap_(scratch_alloc(ws)),
      dist_(scratch_alloc(ws)),
      parent_(scratch_alloc(ws)) {
  heap_.reset_capacity(g.num_nodes());
  dist_.assign(g.num_nodes(), kInfTime);
  parent_.assign(g.num_nodes(), kInvalidNode);
}

template <typename Queue>
void TimeQueryT<Queue>::run(StationId source, Time departure,
                            StationId target) {
  stats_ = QueryStats{};
  heap_.clear();
  dist_.clear();
  parent_.clear();

  const NodeId src = g_.station_node(source);
  dist_.set(src, departure);
  heap_.push(src, departure);
  stats_.pushed++;

  while (!heap_.empty()) {
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
    if (target != kInvalidStation && v == g_.station_node(target)) break;
    // SoA relax: stream heads and prefetch the next head's distance slot.
    // Before the (expensive) TTF evaluation, test the streamed head
    // against `dist <= key`: an edge arrival can never precede the entry
    // time, so such a head — settled or merely already reached this early
    // — cannot improve and the eval is skipped. This subsumes the seed's
    // settled-array test (a settled head's final distance is <= the
    // monotone pop key) and prunes more.
    //
    // One body, no gather -> eval -> commit phasing (algo/relax_batch.hpp):
    // in this graph model a node carries at most one travel function
    // (asserted by graph_test), so there is never a batch to evaluate.
    const std::uint32_t eb = g_.edge_begin(v);
    const std::uint32_t ee = g_.edge_end(v);
    const NodeId* const heads = g_.heads_data();
    const std::uint32_t* const words = g_.words_data();
    for (std::uint32_t ei = eb; ei < ee; ++ei) {
      if (ei + 1 < ee) {
        dist_.prefetch(heads[ei + 1]);
        g_.prefetch_edge_ttf(ei + 1);
      }
      const NodeId head = heads[ei];
      if (dist_.get(head) <= key) continue;  // t >= key >= dist: hopeless
      const std::uint32_t w = words[ei];
      // No transfer penalty for the very first boarding at the source.
      const Time t = (v == src && TdGraph::word_is_const(w))
                         ? key
                         : g_.arrival_by_word(w, key);
      if (t == kInfTime) continue;
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
        parent_.set(head, v);
      }
    }
  }
  heap_.clear();
}

template <typename Queue>
Time TimeQueryT<Queue>::arrival_at(StationId s) const {
  return dist_.get(g_.station_node(s));
}

template <typename Queue>
Time TimeQueryT<Queue>::arrival_at_node(NodeId v) const {
  return dist_.get(v);
}

template <typename Queue>
NodeId TimeQueryT<Queue>::parent(NodeId v) const {
  return parent_.get(v);
}

// The two shipped queue policies (queue_policy.hpp).
template class TimeQueryT<TimeBinaryQueue>;
template class TimeQueryT<TimeBucketQueue>;

}  // namespace pconn
