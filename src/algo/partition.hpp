// Partitioning conn(S) over p threads (paper Section 3.2, "Choice of the
// Partition").
#pragma once

#include <vector>

#include "timetable/timetable.hpp"

namespace pconn {

enum class PartitionStrategy {
  /// Split the day Pi into p equal time intervals; thread k gets the
  /// connections departing in interval k. Simple but unbalanced under rush
  /// hours / night breaks — the paper's negative example.
  kEqualTimeSlots,
  /// Split conn(S) into p ranges of (almost) equal cardinality — the
  /// paper's default compromise.
  kEqualConnections,
  /// 1-D k-means (Lloyd's algorithm) on the departure times, clusters kept
  /// contiguous. The paper reports the improvement over the simple
  /// heuristics as insignificant (Section 3.2); bench_partition verifies.
  kKMeans,
};

/// Returns p+1 monotone boundaries b with b[0] = 0, b[p] = conns.size();
/// thread k owns global connection indices [b[k], b[k+1]). `conns` must be
/// sorted by departure time (which Timetable::outgoing guarantees).
std::vector<std::uint32_t> partition_connections(
    ConnectionView conns, unsigned p, PartitionStrategy strategy,
    Time period);

/// Allocation-free variant for warm query paths: writes the boundaries into
/// `out`, reusing its capacity.
void partition_connections_into(ConnectionView conns, unsigned p,
                                PartitionStrategy strategy, Time period,
                                std::vector<std::uint32_t>& out);

/// max subset size / ideal subset size; 1.0 = perfectly balanced. Used by
/// the partition ablation bench.
double partition_imbalance(const std::vector<std::uint32_t>& boundaries);

}  // namespace pconn
