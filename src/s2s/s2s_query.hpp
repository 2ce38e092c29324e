// Station-to-station profile queries with all of the paper's Section 4
// accelerations: stopping criterion, pruning via the distance table
// (Theorem 3), and target pruning when the target is a transfer station
// (Theorem 4). Falls back gracefully: local queries and queries without a
// table run plain parallel SPCS with the stopping criterion.
#pragma once

#include <memory>
#include <vector>

#include "algo/parallel_spcs.hpp"
#include "graph/station_graph.hpp"
#include "s2s/distance_table.hpp"
#include "s2s/via.hpp"

namespace pconn {

struct S2sOptions {
  unsigned threads = 1;
  PartitionStrategy partition = PartitionStrategy::kEqualConnections;
  bool self_pruning = true;
  bool stopping_criterion = true;
  bool table_pruning = true;    // Theorem 3 (needs a distance table)
  bool target_pruning = true;   // Theorem 4 (needs target in S_trans)
};

/// All per-query scratch — the per-thread pruning hooks with their mu/gamma
/// tables, the via-station DFS buffers and the raw merge profile — is
/// engine-owned and reused, so a warm engine (held by a QuerySession)
/// answers queries without heap allocations via query_into.
class S2sQueryEngine {
 public:
  /// `dt` may be nullptr (no distance-table acceleration).
  S2sQueryEngine(const Timetable& tt, const TdGraph& g, const StationGraph& sg,
                 const DistanceTable* dt, S2sOptions opt);
  ~S2sQueryEngine();

  /// Reduced profile dist(S, T, ·) over the whole period.
  StationQueryResult query(StationId s, StationId t);
  /// Allocation-free variant: reuses `out`'s profile buffer.
  void query_into(StationId s, StationId t, StationQueryResult& out);

  /// Classification of the last query (bench/diagnostics).
  enum class Kind { kPlain, kLocal, kGlobal, kTargetTransfer, kTableLookup };
  Kind last_kind() const { return last_kind_; }

  /// Arena footprint of the inner driver's per-thread workspaces.
  std::size_t scratch_bytes_reserved() const {
    return spcs_.scratch_bytes_reserved();
  }

 private:
  struct Scratch;  // persistent hooks + via/merge buffers (s2s_query.cpp)

  const Timetable& tt_;
  const TdGraph& g_;
  const StationGraph& sg_;
  const DistanceTable* dt_;
  S2sOptions opt_;
  ParallelSpcs spcs_;
  std::unique_ptr<Scratch> scratch_;
  Kind last_kind_ = Kind::kPlain;
};

}  // namespace pconn
