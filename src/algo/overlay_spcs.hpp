// Overlay-routed parallel SPCS: the paper's partitioned connection-setting
// profile search (algo/parallel_spcs.hpp) with the per-thread ascents run
// on the contraction overlay's unified out-CSR (graph/overlay_graph.hpp)
// instead of the flat graph.
//
// Why it is exact. SPCS sources are *route nodes* (one initial push per
// connection at its departure node), and node ids are shared between the
// flat graph and the overlay. From any node — core or contracted — a
// Dijkstra over the unified CSR reaches every CORE node at its exact flat
// distance: a contracted node's stored edges are its out-edges at the
// moment of contraction (heads ranked higher, or core), so the search
// climbs monotonically into the core and then stays there, and witness-
// checked shortcuts preserve all shortest paths into the core. Stations
// are never contracted, so every station label a thread settles — and
// therefore every station profile — is built from exact arrivals. Board
// costs need no source treatment here (unlike the station-sourced overlay
// engines): a shortcut leaving station S folds T(S) into its TTF, which is
// exactly the mid-journey re-boarding cost SPCS pays on the flat graph.
//
// Self-pruning stays thread-local and exact at the *reduced profile*
// level: a pruned (v, i) is always dominated by the same-partition
// connection j > i that pruned it (dep_j >= dep_i, arrival no later), so
// flat and overlay label matrices may differ slot by slot while the
// connection reduction converges to byte-identical profiles — at every
// station and across thread counts (tests/overlay_spcs_test.cpp proves
// this differentially). The ascent is
// SPCS's one relax body (algo/spcs.hpp).
//
// Contracted nodes are recovered on demand by settle_contracted(): one
// batched per-partition downward sweep over the overlay's down-CSR. The
// thread's label matrix is already node-major (slot v * W + li), so each
// down-edge feeds ONE pooled arrival_tn call with the whole partition's W
// connection lanes — the multi-query engine's cross-lane sweep
// (multi_query.cpp settle_contracted_batch) generalized from K query
// lanes to a partition's connection fan, writing back in place instead of
// keeping a transposed copy. Unlike the station-sourced engines' sweep,
// the SPCS ascent can settle contracted nodes on its way up (sources are
// contracted), so the sweep folds with min() rather than overwriting. The
// row call is the sweep's only body: a per-lane scalar variant measured
// slower on three of five presets and was deleted (docs/architecture.md
// "Batch relaxation").
// After it, node_profile() is exact at EVERY flat node by the same
// domination argument, transitively through the FIFO down TTFs.
#pragma once

#include <memory>
#include <vector>

#include "algo/counters.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/partition.hpp"
#include "algo/spcs.hpp"
#include "algo/workspace.hpp"
#include "graph/overlay_graph.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/function_ref.hpp"
#include "util/thread_pool.hpp"

namespace pconn {

/// Shares ParallelSpcsOptions and the result structs with the flat driver
/// so the two engines are drop-in interchangeable.
class OverlayParallelSpcs {
 public:
  /// Needs the flat graph alongside the overlay for the initial pushes
  /// (departure route nodes are a flat-graph notion). Throws on an
  /// overlay contracted from a different dataset.
  OverlayParallelSpcs(const Timetable& tt, const TdGraph& g,
                      const OverlayGraph& ov, ParallelSpcsOptions opt);
  ~OverlayParallelSpcs();

  /// One-to-all profile query from S over the core: partitioned ascent +
  /// merge/reduction at every station. Byte-identical to the flat
  /// ParallelSpcs::one_to_all profiles. Does NOT sweep the contracted
  /// nodes — station profiles never need it; call settle_contracted()
  /// first when node_profile() of contracted nodes is wanted.
  OneToAllResult one_to_all(StationId s);
  /// Allocation-free variant: reuses `out`'s profile buffers.
  void one_to_all_into(StationId s, OneToAllResult& out);

  /// Station-to-station profile query with the stopping criterion, run in
  /// kSpcsChunk-wide chunks like the flat driver's (targets are stations,
  /// hence core — no sweep involved).
  StationQueryResult station_to_station(StationId s, StationId t);
  void station_to_station_into(StationId s, StationId t,
                               StationQueryResult& out);

  /// Extends the last full (no-target) run to every contracted node: each
  /// pool thread runs one batched rank-descending sweep over its own
  /// partition's label rows (header note). Idempotent until the next run.
  void settle_contracted();

  /// Reduced profile dist(S, v, ·) at ANY flat node of the last full run
  /// (the per-connection generalization of the scalar engines'
  /// arrival_at_node). Contracted nodes require settle_contracted().
  Profile node_profile(StationId s, NodeId v);
  void node_profile_into(StationId s, NodeId v, Profile& out);

  const ParallelSpcsOptions& options() const { return opt_; }
  const Timetable& timetable() const { return tt_; }
  const TdGraph& graph() const { return g_; }
  const OverlayGraph& overlay() const { return ov_; }

  /// Same partition-parallel access the flat driver offers.
  using RangeFn =
      FunctionRef<void(std::size_t thread, std::uint32_t lo, std::uint32_t hi)>;
  void run_partitioned(StationId s, RangeFn fn);

  SpcsThreadState& thread_state(std::size_t i) { return states_[i]; }
  const std::vector<std::uint32_t>& last_boundaries() const {
    return boundaries_;
  }

  /// Station-profile assembly of the last run (shared by one_to_all).
  Profile assemble_profile(StationId s, StationId t);
  void assemble_profile_into(StationId s, StationId t, Profile& out);

  /// Work summed over the per-thread states *right now* — unlike the
  /// snapshot in OneToAllResult::stats this includes a later
  /// settle_contracted()'s relax accounting.
  QueryStats accumulated_stats() const;

  /// Per-phase wall clocks of the last one_to_all (+ sweep): the slowest
  /// thread's ascent, the sweep, and the master-thread merge/reduction.
  double ascent_ms() const { return ascent_ms_; }
  double sweep_ms() const { return sweep_ms_; }
  double merge_ms() const { return merge_ms_; }

  /// Total arena footprint of the per-thread workspaces.
  std::size_t scratch_bytes_reserved() const;

 private:
  /// Arena-backed per-thread sweep rows: raw entry times (kInfTime = dead
  /// lane), the kernel's clamped copy, its outputs, the running strict
  /// minimum, and per-lane relax counters.
  struct SweepScratch {
    explicit SweepScratch(ScratchAlloc alloc)
        : raw(ArenaAllocator<Time>(alloc)),
          ts(ArenaAllocator<Time>(alloc)),
          out(ArenaAllocator<Time>(alloc)),
          best(ArenaAllocator<Time>(alloc)),
          rcnt(ArenaAllocator<std::uint32_t>(alloc)) {}
    std::vector<Time, ArenaAllocator<Time>> raw, ts, out, best;
    std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> rcnt;
  };

  /// The down-sweep of one thread's partition (body of settle_contracted).
  void sweep_partition(std::size_t th);
  /// Raw (unreduced) per-connection arrivals at node `vn`, partition order.
  void collect_raw_profile_at(StationId s, NodeId vn, Profile& raw) const;

  const Timetable& tt_;
  const TdGraph& g_;
  const OverlayGraph& ov_;
  ParallelSpcsOptions opt_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;
  std::vector<SpcsThreadState> states_;
  std::vector<std::unique_ptr<SweepScratch>> sweep_;
  std::vector<std::uint32_t> boundaries_;
  std::vector<double> thread_ms_;
  Profile raw_scratch_;
  double ascent_ms_ = 0.0, sweep_ms_ = 0.0, merge_ms_ = 0.0;
  bool full_run_ = false;  // last run had no target (sweep legality)
  bool swept_ = false;     // sweep done for the last run
};

}  // namespace pconn
