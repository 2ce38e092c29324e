// Parallel driver for SPCS (paper Section 3.2).
//
// conn(S) is partitioned into p contiguous ranges; each thread runs the
// sequential self-pruning connection-setting algorithm on its range with
// fully thread-local state (labels, maxconn, queue). Threads never prune
// across ranges — exactly the paper's design — so the merged label vector
// need not be FIFO and the final profiles are obtained with the connection
// reduction.
//
// The same code runs over one of two graphs, picked once at
// construction: the flat TdGraph, or the contraction overlay's unified
// out-CSR (graph/overlay_graph.hpp). Only the graph the ascent walks
// differs; the overlay half (exactness argument, the contracted nodes'
// down-sweep) lives in algo/overlay_spcs.{hpp,cpp}.
#pragma once

#include <memory>
#include <vector>

#include "algo/counters.hpp"
#include "algo/partition.hpp"
#include "algo/spcs.hpp"
#include "algo/workspace.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/function_ref.hpp"
#include "util/thread_pool.hpp"

namespace pconn {

class OverlayGraph;

struct ParallelSpcsOptions {
  unsigned threads = 1;
  PartitionStrategy partition = PartitionStrategy::kEqualConnections;
  bool self_pruning = true;
  bool stopping_criterion = true;  // station-to-station queries only
};

struct OneToAllResult {
  /// Reduced profile dist(S, T, ·) for every station T.
  std::vector<Profile> profiles;
  /// Work summed over threads; time_ms is the wall clock of the whole query.
  QueryStats stats;
  /// Wall clock of the slowest / fastest thread (balance reporting).
  double max_thread_ms = 0.0;
  double min_thread_ms = 0.0;
};

struct StationQueryResult {
  Profile profile;  // reduced dist(S, T, ·)
  QueryStats stats;
};

/// Lifecycle: the driver owns one QueryWorkspace per pool thread; every
/// thread state's scratch (labels, queue) lives in its thread's arena and
/// is bound to the pool thread for the driver's whole lifetime — states
/// are never respawned per query. The `_into` query
/// variants additionally reuse caller-owned result buffers, so a warm
/// driver answers queries without any heap allocation (QuerySession wraps
/// them; see docs/architecture.md).
class ParallelSpcs {
 public:
  /// Flat: the ascents walk `g`.
  ParallelSpcs(const Timetable& tt, const TdGraph& g, ParallelSpcsOptions opt);
  /// Overlay-routed: the ascents walk `ov`'s out-CSR; `g` still
  /// supplies the initial pushes (departure route nodes are a flat-graph
  /// notion). Throws on an overlay contracted from a different dataset.
  ParallelSpcs(const Timetable& tt, const TdGraph& g, const OverlayGraph& ov,
               ParallelSpcsOptions opt);
  ~ParallelSpcs();

  /// One-to-all profile query from S, including merge and reduction.
  /// Profiles are byte-identical between flat and overlay-routed. The
  /// overlay-routed run does not sweep the contracted nodes (station profiles
  /// never need it); call settle_contracted() before node_profile() of a
  /// contracted node.
  OneToAllResult one_to_all(StationId s);
  /// Allocation-free variant: reuses `out`'s profile buffers.
  void one_to_all_into(StationId s, OneToAllResult& out);

  /// Station-to-station profile query with the stopping criterion. Each
  /// thread walks its range in chunks of kSpcsChunk connections
  /// (SpcsThreadState::run_chunked_on), so the thread states hold only the
  /// last chunk's labels afterwards: assemble_profile / node_profile read
  /// one_to_all runs only. (Distance-table pruning lives in
  /// s2s::S2sQueryEngine, which drives the same thread states with a
  /// settle hook over whole ranges.)
  StationQueryResult station_to_station(StationId s, StationId t);
  /// Allocation-free variant: reuses `out`'s profile buffer.
  void station_to_station_into(StationId s, StationId t,
                               StationQueryResult& out);

  /// Overlay-routed only (asserts otherwise): extends the last one_to_all
  /// run to every contracted node, one batched rank-descending sweep per
  /// pool thread over its own partition's label rows
  /// (algo/overlay_spcs.hpp). Idempotent until the next run.
  void settle_contracted();

  const ParallelSpcsOptions& options() const { return opt_; }
  const Timetable& timetable() const { return tt_; }
  const TdGraph& graph() const { return g_; }

  /// Access for the s2s engine: runs fn(thread, lo, hi) on every thread in
  /// parallel with the conn(S) partition boundaries precomputed for `s`.
  /// Non-owning: `fn` only has to outlive the call (fork-join).
  using RangeFn =
      FunctionRef<void(std::size_t thread, std::uint32_t lo, std::uint32_t hi)>;
  void run_partitioned(StationId s, RangeFn fn);

  SpcsThreadState& thread_state(std::size_t i) { return states_[i]; }
  const std::vector<std::uint32_t>& last_boundaries() const {
    return boundaries_;
  }

  /// Assembles the reduced profile of station `t` from the per-thread
  /// labels of the last run from source `s` (shared by one_to_all and the
  /// s2s engines).
  Profile assemble_profile(StationId s, StationId t) const;
  /// Allocation-free variant: reuses `out` and an internal raw buffer.
  void assemble_profile_into(StationId s, StationId t, Profile& out);

  /// Reduced profile dist(S, v, ·) at ANY graph node of the last full run
  /// (a full flat run settles route nodes too; an overlay-routed run needs
  /// settle_contracted() first for contracted nodes).
  /// tests/overlay_spcs_test.cpp diffs the two at every node.
  Profile node_profile(StationId s, NodeId v) const;
  void node_profile_into(StationId s, NodeId v, Profile& out);

  /// Work summed over the per-thread states *right now* — unlike the
  /// snapshot in OneToAllResult::stats this includes a later
  /// settle_contracted()'s relax accounting.
  QueryStats accumulated_stats() const;

  /// Wall clocks of the last one_to_all's master-thread merge/reduction
  /// and of the last settle_contracted() (0 until it runs). The slowest
  /// thread's ascent is OneToAllResult::max_thread_ms.
  double merge_ms() const { return merge_ms_; }
  double sweep_ms() const { return sweep_ms_; }

  /// Total arena footprint of the per-thread workspaces.
  std::size_t scratch_bytes_reserved() const;

 private:
  /// Per-thread rows of the overlay down-sweep (algo/overlay_spcs.hpp).
  struct SweepScratch;

  /// The shared merge loop of the assemble/node_profile variants: raw
  /// (unreduced) per-connection arrivals at node `vn`, in partition order.
  void collect_raw_profile_at(StationId s, NodeId vn, Profile& raw) const;
  /// The down-sweep of one thread's partition (body of settle_contracted).
  void sweep_partition(std::size_t th);

  const Timetable& tt_;
  const TdGraph& g_;
  const OverlayGraph* ov_ = nullptr;  // null: flat
  ParallelSpcsOptions opt_;
  ThreadPool pool_;
  // One workspace per pool thread, allocated before the states so the
  // states' containers can bind to the arenas; never touched concurrently
  // by two threads (each state only grows its own workspace).
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;
  std::vector<SpcsThreadState> states_;
  // Overlay-routed only, one per pool thread; its rows are allocated in
  // the thread's arena by the first sweep, never when flat.
  std::vector<std::unique_ptr<SweepScratch>> sweep_;
  std::vector<std::uint32_t> boundaries_;
  std::vector<double> thread_ms_;  // per-query scratch (one_to_all)
  Profile raw_scratch_;            // assemble_profile_into scratch
  double merge_ms_ = 0.0, sweep_ms_ = 0.0;
  bool full_run_ = false;  // last run had no target (sweep legality)
  bool swept_ = false;     // sweep done for the last run
};

}  // namespace pconn
