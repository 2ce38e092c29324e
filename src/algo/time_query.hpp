// Time-query: time-dependent Dijkstra for a fixed departure time
// (paper Section 2, "Computing Distances").
//
// Computes dist(S, ·, tau) — the earliest arrival at every node when
// departing station S at absolute time tau. Boarding at the source itself
// is free (the origin requires no transfer; SPCS encodes the same semantics
// by starting directly on route nodes), so results are directly comparable
// with profile searches evaluated at tau.
//
// Doubles as the correctness oracle of the test suite and as the
// per-connection degenerate case of SPCS (p = |conn(S)|, Section 3.2).
#pragma once

#include <vector>

#include "algo/counters.hpp"
#include "algo/queue_policy.hpp"
#include "algo/workspace.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/epoch_array.hpp"

namespace pconn {

class TimeQuery {
 public:
  /// `ws` (optional) places all scratch — dist/parent arrays and the
  /// queue — in the workspace's arena; the engine must not outlive it.
  TimeQuery(const Timetable& tt, const TdGraph& g,
            QueryWorkspace* ws = nullptr);

  /// One-to-all run. Results stay valid until the next run.
  /// If `target` is given, stops once the target's station node is settled.
  void run(StationId source, Time departure,
           StationId target = kInvalidStation);

  /// Earliest absolute arrival at the station node of s; kInfTime when
  /// unreachable (or not settled before an early target stop).
  Time arrival_at(StationId s) const;
  /// Earliest absolute arrival at an arbitrary graph node.
  Time arrival_at_node(NodeId v) const;

  /// Predecessor node on the shortest path tree (kInvalidNode at the
  /// source / unreached nodes). Used by journey extraction.
  NodeId parent(NodeId v) const;

  const QueryStats& stats() const { return stats_; }

 private:
  const Timetable& tt_;
  const TdGraph& g_;
  TimeQueue heap_;
  // No settled array: pop keys are monotone and edge traversal never goes
  // back in time, so an arrival pushed towards an already-settled head can
  // never pass the `t < dist` test — the tentative-distance array alone
  // identifies both stale pops and pointless relaxations.
  EpochArray<Time> dist_;
  EpochArray<NodeId> parent_;
  QueryStats stats_;
};

}  // namespace pconn
