// Earliest-arrival queries on the time-expanded model: a plain scalar
// Dijkstra, since every edge weight is a constant duration. Serves as the
// model-comparison baseline ([7], [23]) and as an independent oracle for
// the time-dependent engines in the test suite.
#pragma once

#include "algo/counters.hpp"
#include "algo/queue_policy.hpp"
#include "algo/workspace.hpp"
#include "graph/te_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/epoch_array.hpp"

namespace pconn {

/// Template over the scalar-time queue policy (queue_policy.hpp);
/// definitions in te_query.cpp instantiate the two shipped policies.
template <typename Queue = TimeBinaryQueue>
class TeTimeQueryT {
 public:
  /// `ws` (optional) places all scratch in the workspace's arena.
  explicit TeTimeQueryT(const TeGraph& g, QueryWorkspace* ws = nullptr);

  /// One-to-all earliest arrivals from `source` at absolute time
  /// `departure`. If `target` is given, stops as soon as the target's
  /// earliest arrival is final.
  void run(StationId source, Time departure,
           StationId target = kInvalidStation);

  /// Earliest absolute arrival at station s (kInfTime when unreachable or
  /// cut off by an early target stop). The source itself returns the
  /// departure time.
  Time arrival_at(StationId s) const;

  const QueryStats& stats() const { return stats_; }

 private:
  const TeGraph& g_;
  Queue heap_;
  EpochArray<Time> dist_;
  EpochArray<Time> best_arrival_;  // per station, over settled arrival events
  StationId source_ = kInvalidStation;
  Time departure_ = 0;
  QueryStats stats_;
};

using TeTimeQuery = TeTimeQueryT<>;

}  // namespace pconn
