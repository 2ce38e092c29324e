// Multi-criteria time queries — the paper's future-work direction
// (Section 6: "it will be interesting to incorporate multi-criteria
// connections, e.g., minimizing the number of transfers").
//
// Computes, for a fixed departure time, the Pareto front over
// (arrival time, number of boardings) at every station: the classic
// Martins-style multi-label Dijkstra specialized to two criteria. Labels
// are popped in lexicographic (arrival, boardings) order, so a popped
// label is Pareto-optimal iff its boarding count beats the best seen at
// its node — dominance tests are O(1) against a per-node minimum.
//
// The queue is a compile-time policy like every other engine's
// (queue_policy.hpp): keys are the composite (arrival << kMcKeyShift) |
// boardings, so lexicographic order is plain integer order. A multi-label
// search holds several live entries per node, which rules out addressable
// policies (they keep one key per id) — the lazy heap at arity 2 is the
// former std::priority_queue, and the bucket queue applies because pops
// are monotone in the composite key (arrival never decreases; at equal
// arrival the boarding count never decreases along a relaxation).
#pragma once

#include <span>
#include <vector>

#include "algo/counters.hpp"
#include "algo/queue_policy.hpp"
#include "algo/workspace.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/epoch_array.hpp"

namespace pconn {

struct McLabel {
  Time arr;               // absolute arrival
  std::uint32_t boards;   // vehicles boarded so far (transfers = boards - 1)
  bool operator==(const McLabel&) const = default;
};

/// Template over the multi-criteria queue policy (queue_policy.hpp);
/// definitions in mc_query.cpp instantiate the shipped policies.
template <typename Queue = McBinaryQueue>
class McTimeQueryT {
  static_assert(!Queue::kAddressable,
                "multi-label search keeps several live queue entries per "
                "node; addressable (one-key-per-id) policies cannot run it");

 public:
  /// `ws` (optional) places all scratch — the queue, the per-node Pareto
  /// fronts and the dominance array — in the workspace's arena.
  McTimeQueryT(const Timetable& tt, const TdGraph& g,
               QueryWorkspace* ws = nullptr);

  /// Pareto search from `source` at absolute time `departure`. Journeys
  /// with more than `max_boards` boardings are cut off (they are almost
  /// never Pareto-optimal in practice and bounding them guarantees
  /// termination on free-transfer cycles). Capped at 2^kMcKeyShift - 1 so
  /// the boarding count fits the composite key's low bits.
  void run(StationId source, Time departure, std::uint32_t max_boards = 16);

  /// Pareto front at a station: arrival strictly increasing, boardings
  /// strictly decreasing. Empty if unreachable. The front's first entry is
  /// the earliest arrival (equals TimeQuery), the last the fewest-boarding
  /// alternative.
  std::span<const McLabel> pareto(StationId s) const;

  const QueryStats& stats() const { return stats_; }

 private:
  using Front = std::vector<McLabel, ArenaAllocator<McLabel>>;

  const Timetable& tt_;
  const TdGraph& g_;
  Queue queue_;
  // Per node: permanent Pareto labels (cleared via touched_ per run; the
  // vectors keep their capacity across queries).
  std::vector<Front, ArenaAllocator<Front>> fronts_;
  EpochArray<std::uint32_t> min_boards_;
  QueryStats stats_;
  std::vector<NodeId, ArenaAllocator<NodeId>> touched_;
};

/// The paper-era default: the former std::priority_queue configuration.
using McTimeQuery = McTimeQueryT<>;

}  // namespace pconn
