#include "algo/partition.hpp"

#include <algorithm>

namespace pconn {

void partition_connections_into(ConnectionView conns, unsigned p,
                                PartitionStrategy strategy, Time period,
                                std::vector<std::uint32_t>& b) {
  const auto n = static_cast<std::uint32_t>(conns.size());
  b.assign(p + 1, n);  // reuses capacity on repeated queries
  b[0] = 0;
  switch (strategy) {
    case PartitionStrategy::kEqualConnections:
      for (unsigned k = 1; k < p; ++k) {
        b[k] = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(n) * k) / p);
      }
      break;
    case PartitionStrategy::kEqualTimeSlots:
      for (unsigned k = 1; k < p; ++k) {
        Time slot_begin = static_cast<Time>(
            (static_cast<std::uint64_t>(period) * k) / p);
        auto it = std::lower_bound(
            conns.begin(), conns.end(), slot_begin,
            [](const Connection& c, Time v) { return c.dep < v; });
        b[k] = static_cast<std::uint32_t>(it - conns.begin());
      }
      break;
    case PartitionStrategy::kKMeans: {
      if (n == 0 || p <= 1) break;
      // Lloyd's algorithm in 1-D over sorted departures: clusters stay
      // contiguous, so boundaries are cut positions. Seed with the
      // equal-count split; iterate to a fixpoint (bounded rounds).
      std::vector<double> cut(p - 1);
      for (unsigned k = 1; k < p; ++k) {
        b[k] = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(n) * k) / p);
      }
      for (int round = 0; round < 32; ++round) {
        // Means per cluster.
        std::vector<double> mean(p, 0.0);
        bool any_empty = false;
        for (unsigned k = 0; k < p; ++k) {
          if (b[k + 1] == b[k]) {
            any_empty = true;
            continue;
          }
          double sum = 0.0;
          for (std::uint32_t i = b[k]; i < b[k + 1]; ++i) sum += conns[i].dep;
          mean[k] = sum / (b[k + 1] - b[k]);
        }
        if (any_empty) break;  // degenerate; keep the previous boundaries
        // New cuts at the midpoints between adjacent means.
        bool changed = false;
        for (unsigned k = 1; k < p; ++k) {
          cut[k - 1] = 0.5 * (mean[k - 1] + mean[k]);
          auto it = std::lower_bound(conns.begin(), conns.end(), cut[k - 1],
                                     [](const Connection& c, double v) {
                                       return static_cast<double>(c.dep) < v;
                                     });
          auto nb = static_cast<std::uint32_t>(it - conns.begin());
          if (nb != b[k]) changed = true;
          b[k] = nb;
        }
        // Keep boundaries monotone (can momentarily cross on tiny inputs).
        for (unsigned k = 1; k <= p; ++k) b[k] = std::max(b[k], b[k - 1]);
        if (!changed) break;
      }
      break;
    }
  }
}

std::vector<std::uint32_t> partition_connections(
    ConnectionView conns, unsigned p, PartitionStrategy strategy,
    Time period) {
  std::vector<std::uint32_t> b;
  partition_connections_into(conns, p, strategy, period, b);
  return b;
}

double partition_imbalance(const std::vector<std::uint32_t>& boundaries) {
  if (boundaries.size() < 2) return 1.0;
  const std::uint32_t n = boundaries.back();
  const std::size_t p = boundaries.size() - 1;
  if (n == 0) return 1.0;
  std::uint32_t max_size = 0;
  for (std::size_t k = 0; k + 1 < boundaries.size(); ++k) {
    max_size = std::max(max_size, boundaries[k + 1] - boundaries[k]);
  }
  return static_cast<double>(max_size) * static_cast<double>(p) /
         static_cast<double>(n);
}

}  // namespace pconn
