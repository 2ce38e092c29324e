// Time-query: time-dependent Dijkstra for a fixed departure time
// (paper Section 2, "Computing Distances").
//
// Computes dist(S, ·, tau) — the earliest arrival at every node when
// departing station S at absolute time tau. Boarding at the source itself
// is free (the origin requires no transfer; SPCS encodes the same semantics
// by starting directly on route nodes), so results are directly comparable
// with profile searches evaluated at tau.
//
// The search walks one of two graphs, picked at construction: the flat
// TdGraph, or the contraction overlay's out-CSR (graph/overlay_graph.hpp),
// which settles the station-centric core only. Stations are never
// contracted, so overlay station arrivals equal the flat ones; shortcut
// TTFs out of a station have T(S) folded in, so at the source the overlay
// search evaluates them at t - T(S) (source_arrival).
//
// Doubles as the correctness oracle of the test suite and as the
// per-connection degenerate case of SPCS (p = |conn(S)|, Section 3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "algo/counters.hpp"
#include "algo/journey.hpp"
#include "algo/queue_policy.hpp"
#include "algo/relax_batch.hpp"
#include "algo/workspace.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/epoch_array.hpp"

namespace pconn {

class OverlayGraph;

class TimeQuery {
 public:
  /// Flat. `ws` (optional) places all scratch — dist/parent arrays and the
  /// queue — in the workspace's arena; the engine must not outlive it.
  TimeQuery(const Timetable& tt, const TdGraph& g, QueryWorkspace* ws = nullptr)
      : TimeQuery(tt, g, nullptr, ws) {}
  /// Overlay-routed; `g` still serves journey replay. Throws on an overlay
  /// contracted from a different dataset (require_overlay_matches).
  TimeQuery(const Timetable& tt, const TdGraph& g, const OverlayGraph& ov,
            QueryWorkspace* ws = nullptr)
      : TimeQuery(tt, g, &ov, ws) {}

  /// One-to-all run. Results stay valid until the next run.
  /// If `target` is given, stops once the target's station node is settled.
  void run(StationId source, Time departure,
           StationId target = kInvalidStation);

  /// Overlay-routed: extends the last full run (no target stop) to every
  /// contracted node with one rank-descending pass over the downward CSR,
  /// no queue. After it, arrival_at_node matches the flat engine at ALL
  /// nodes. Idempotent until the next run(); a no-op on a flat engine,
  /// whose labels already are final at every node.
  void settle_contracted();

  /// Earliest absolute arrival at the station node of s; kInfTime when
  /// unreachable (or not settled before an early target stop).
  Time arrival_at(StationId s) const {
    return dist_.get(g_.station_node(s));
  }
  /// Earliest absolute arrival at an arbitrary graph node.
  Time arrival_at_node(NodeId v) const { return dist_.get(v); }
  /// Predecessor node on the shortest path tree (kInvalidNode at the
  /// source / unreached nodes).
  NodeId parent(NodeId v) const { return parent_.get(v); }
  /// The label array (the multi-query engine transposes it through the
  /// EpochArray raw views).
  const EpochArray<Time>& labels() const { return dist_; }
  /// Overlay-routed only (asserted; undefined on a flat engine in a
  /// Release build): the overlay edge of the last relax that set v's label.
  std::uint32_t parent_edge(NodeId v) const;

  /// The journey to `target` after run(source, departure, ...): the flat
  /// engine walks its parent chain, the overlay engine expands the
  /// shortcuts on its parent path back to the exact flat node sequence.
  /// Reuses `out`'s leg vector; false when the target is unreachable.
  bool extract_journey_into(StationId source, Time departure, StationId target,
                            Journey& out);

  const QueryStats& stats() const { return stats_; }

  /// No-op, kept only for bench/e2e/ladder.cpp:69-70; goes with that
  /// file's next change (only the LC engines read RelaxMode).
  void set_relax_options(RelaxMode) {}

  /// Overlay-routed only (asserted; undefined on a flat engine in a
  /// Release build): arrival via an overlay word entered at `t` at the last
  /// run's source, undoing the folded board cost.
  Time source_arrival(std::uint32_t w, Time t) const;

 private:
  TimeQuery(const Timetable& tt, const TdGraph& g, const OverlayGraph* ov,
            QueryWorkspace* ws);

  /// The search over the TdGraph or the OverlayGraph; run() picks once.
  template <typename Graph>
  void run_on(const Graph& graph, StationId target);

  /// Arrival via an overlay origin (flat edge or shortcut record).
  Time origin_arrival(std::uint32_t origin, Time t, bool at_source) const;
  /// Replays an origin from `tail` at time `t`, appending the flat nodes
  /// and ready times beyond the tail; returns the arrival at the head.
  Time replay_origin(std::uint32_t origin, NodeId tail, Time t, bool at_source);

  const Timetable& tt_;
  const TdGraph& g_;
  const OverlayGraph* ov_ = nullptr;  // null: flat
  TimeQueue heap_;
  // No settled array: pop keys are monotone and edge traversal never goes
  // back in time, so an arrival pushed towards an already-settled head can
  // never pass the `t < dist` test — the tentative-distance array alone
  // identifies both stale pops and pointless relaxations.
  EpochArray<Time> dist_;
  EpochArray<NodeId> parent_;
  EpochArray<std::uint32_t> parent_edge_;  // overlay only
  StationId source_ = kInvalidStation;
  Time departure_ = 0;
  bool full_run_ = false;  // last run had no target stop
  bool swept_ = false;     // settle_contracted() ran since the last run
  QueryStats stats_;
  // Journey scratch, grown to a high-water mark: the flat node path, its
  // ready times, and the overlay parent edges.
  std::vector<NodeId, ArenaAllocator<NodeId>> path_;
  std::vector<Time, ArenaAllocator<Time>> ready_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> edge_path_;
};

}  // namespace pconn
