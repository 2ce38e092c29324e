#include "s2s/distance_table.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace pconn {

DistanceTable DistanceTable::build(const Timetable& tt, const TdGraph& g,
                                   std::vector<StationId> transfer_stations,
                                   const ParallelSpcsOptions& spcs_opt,
                                   BuildInfo* info) {
  Timer timer;
  DistanceTable dt;
  dt.period_ = tt.period();
  std::sort(transfer_stations.begin(), transfer_stations.end());
  transfer_stations.erase(
      std::unique(transfer_stations.begin(), transfer_stations.end()),
      transfer_stations.end());
  dt.stations_ = std::move(transfer_stations);
  dt.index_.assign(tt.num_stations(), kNoConn);
  dt.flags_.assign(tt.num_stations(), 0);
  for (std::size_t i = 0; i < dt.stations_.size(); ++i) {
    dt.index_[dt.stations_[i]] = static_cast<std::uint32_t>(i);
    dt.flags_[dt.stations_[i]] = 1;
  }

  const std::size_t n = dt.stations_.size();
  dt.table_.assign(n * n, Profile{});

  ParallelSpcsOptions opt = spcs_opt;
  opt.stopping_criterion = false;
  ParallelSpcs spcs(tt, g, opt);
  for (std::size_t row = 0; row < n; ++row) {
    const StationId src = dt.stations_[row];
    // Full one-to-all labels, but only transfer-station columns are kept.
    spcs.run_partitioned(src, [&](std::size_t t, std::uint32_t lo,
                                  std::uint32_t hi) {
      NoHook hook;
      SpcsOptions o{.self_pruning = opt.self_pruning,
                    .stopping_criterion = false};
      spcs.thread_state(t).run(g, tt, tt.outgoing(src), lo, hi,
                               kInvalidStation, o, hook);
    });
    for (std::size_t col = 0; col < n; ++col) {
      if (col == row) continue;
      dt.table_[row * n + col] =
          spcs.assemble_profile(src, dt.stations_[col]);
    }
  }

  if (info) {
    info->preprocessing_seconds = timer.elapsed_s();
    info->table_bytes = dt.memory_bytes();
  }
  return dt;
}

std::size_t DistanceTable::memory_bytes() const {
  std::size_t bytes = index_.size() * sizeof(std::uint32_t) +
                      flags_.size() + stations_.size() * sizeof(StationId);
  for (const Profile& p : table_) {
    bytes += sizeof(Profile) + p.size() * sizeof(ProfilePoint);
  }
  return bytes;
}

}  // namespace pconn
