// Parallel driver for SPCS (paper Section 3.2).
//
// conn(S) is partitioned into p contiguous ranges; each thread runs the
// sequential self-pruning connection-setting algorithm on its range with
// fully thread-local state (labels, maxconn, queue). Threads never prune
// across ranges — exactly the paper's design — so the merged label vector
// need not be FIFO and the final profiles are obtained with the connection
// reduction.
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

struct ParallelSpcsOptions {
  unsigned threads = 1;
  PartitionStrategy partition = PartitionStrategy::kEqualConnections;
  bool self_pruning = true;
  bool stopping_criterion = true;  // station-to-station queries only
  bool prune_on_relax = false;     // see SpcsOptions::prune_on_relax
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

/// Template over the queue policy of the per-thread SPCS states
/// (queue_policy.hpp). Definitions live in parallel_spcs.cpp, which
/// explicitly instantiates the two shipped policies; `ParallelSpcs` is
/// the paper's binary-heap configuration.
///
/// Lifecycle: the driver owns one QueryWorkspace per pool thread; every
/// thread state's scratch (labels, queue, bucket window) lives in its
/// thread's arena and is bound to the pool thread for the driver's whole
/// lifetime — states are never respawned per query. The `_into` query
/// variants additionally reuse caller-owned result buffers, so a warm
/// driver answers queries without any heap allocation (QuerySession wraps
/// them; see docs/architecture.md).
template <typename Queue = SpcsBinaryQueue>
class ParallelSpcsT {
 public:
  ParallelSpcsT(const Timetable& tt, const TdGraph& g,
                ParallelSpcsOptions opt);
  ~ParallelSpcsT();

  /// One-to-all profile query from S, including merge and reduction.
  OneToAllResult one_to_all(StationId s);
  /// Allocation-free variant: reuses `out`'s profile buffers.
  void one_to_all_into(StationId s, OneToAllResult& out);

  /// Station-to-station profile query with the stopping criterion. Each
  /// thread walks its range in chunks of kSpcsChunk connections
  /// (SpcsThreadStateT::run_chunked_on), so the thread states hold only the
  /// last chunk's labels afterwards: assemble_profile / node_profile read
  /// one_to_all runs only. (Distance-table pruning lives in
  /// s2s::S2sQueryEngine, which drives the same thread states with a
  /// settle hook over whole ranges.)
  StationQueryResult station_to_station(StationId s, StationId t);
  /// Allocation-free variant: reuses `out`'s profile buffer.
  void station_to_station_into(StationId s, StationId t,
                               StationQueryResult& out);

  const ParallelSpcsOptions& options() const { return opt_; }
  const Timetable& timetable() const { return tt_; }
  const TdGraph& graph() const { return g_; }

  /// Access for the s2s engine: runs fn(thread, lo, hi) on every thread in
  /// parallel with the conn(S) partition boundaries precomputed for `s`.
  /// Non-owning: `fn` only has to outlive the call (fork-join).
  using RangeFn =
      FunctionRef<void(std::size_t thread, std::uint32_t lo, std::uint32_t hi)>;
  void run_partitioned(StationId s, RangeFn fn);

  SpcsThreadStateT<Queue>& thread_state(std::size_t i) { return states_[i]; }
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
  /// (a full flat run settles route nodes too). The overlay driver
  /// (algo/overlay_spcs.hpp) offers the same surface after its down-sweep;
  /// tests/overlay_spcs_test.cpp diffs the two at every node.
  Profile node_profile(StationId s, NodeId v) const;
  void node_profile_into(StationId s, NodeId v, Profile& out);

  /// Total arena footprint of the per-thread workspaces.
  std::size_t scratch_bytes_reserved() const;

 private:
  /// The shared merge loop of the assemble/node_profile variants: raw
  /// (unreduced) per-connection arrivals at node `vn`, in partition order.
  void collect_raw_profile_at(StationId s, NodeId vn, Profile& raw) const;

  const Timetable& tt_;
  const TdGraph& g_;
  ParallelSpcsOptions opt_;
  ThreadPool pool_;
  // One workspace per pool thread, allocated before the states so the
  // states' containers can bind to the arenas; never touched concurrently
  // by two threads (each state only grows its own workspace).
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;
  std::vector<SpcsThreadStateT<Queue>> states_;
  std::vector<std::uint32_t> boundaries_;
  std::vector<double> thread_ms_;  // per-query scratch (one_to_all)
  Profile raw_scratch_;            // assemble_profile_into scratch
};

using ParallelSpcs = ParallelSpcsT<>;

}  // namespace pconn
