// Work counters reported by all query algorithms. The paper's Table 1/2
// "settled connections" column is `settled` summed over all threads; queue
// operation counts back the Section 5.1 observation that LC performs up to
// 4x fewer queue operations than CS yet is slower overall.
#pragma once

#include <cstdint>

namespace pconn {

struct QueryStats {
  std::uint64_t settled = 0;       // items taken from the priority queue
  std::uint64_t pushed = 0;        // queue insertions
  std::uint64_t decreased = 0;     // decrease-key operations
  std::uint64_t stale_popped = 0;  // outdated pops dropped; every engine's
                                   // heap is addressable, so always 0
  std::uint64_t relaxed = 0;       // edge relaxations attempted
  std::uint64_t self_pruned = 0;   // pops discarded by self-pruning
  std::uint64_t stop_pruned = 0;   // pops discarded by the stopping criterion
  std::uint64_t table_pruned = 0;  // pops discarded by distance-table pruning
  std::uint64_t label_points = 0;  // LC only: sum of label sizes at pops
  double time_ms = 0.0;

  std::uint64_t queue_ops() const {
    return pushed + decreased + settled + stale_popped;
  }

  QueryStats& operator+=(const QueryStats& o) {
    settled += o.settled;
    pushed += o.pushed;
    decreased += o.decreased;
    stale_popped += o.stale_popped;
    relaxed += o.relaxed;
    self_pruned += o.self_pruned;
    stop_pruned += o.stop_pruned;
    table_pruned += o.table_pruned;
    label_points += o.label_points;
    time_ms += o.time_ms;
    return *this;
  }
};

}  // namespace pconn
