// Full profile distance table between transfer stations (paper Section 4).
//
// D(A, B, tau) returns the earliest arrival at B when departing A at tau,
// without transfer penalties at A or B. Entries are reduced profiles, so a
// lookup is a binary search; the table is precomputed by running the
// parallel one-to-all SPCS from every transfer station (Section 5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "algo/parallel_spcs.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

class DistanceTable {
 public:
  struct BuildInfo {
    double preprocessing_seconds = 0.0;
    std::size_t table_bytes = 0;
  };

  /// `transfer_stations` need not be sorted; duplicates are removed.
  /// `spcs_opt.threads` parallelizes each one-to-all run, as in the paper.
  static DistanceTable build(const Timetable& tt, const TdGraph& g,
                             std::vector<StationId> transfer_stations,
                             const ParallelSpcsOptions& spcs_opt,
                             BuildInfo* info = nullptr);

  bool is_transfer(StationId s) const { return index_[s] != kNoConn; }
  const std::vector<std::uint8_t>& transfer_flags() const { return flags_; }
  const std::vector<StationId>& transfer_stations() const { return stations_; }
  std::size_t size() const { return stations_.size(); }

  /// D(a, b, t): earliest absolute arrival at b departing a at absolute
  /// time t. Both must be transfer stations; a == b returns t. kInfTime if
  /// unreachable.
  Time query(StationId a, StationId b, Time t) const {
    if (a == b) return t;
    return eval_profile(profile(a, b), t, period_);
  }

  const Profile& profile(StationId a, StationId b) const {
    return table_[static_cast<std::size_t>(index_[a]) * stations_.size() +
                  index_[b]];
  }

  std::size_t memory_bytes() const;

 private:
  std::vector<StationId> stations_;      // sorted transfer stations
  std::vector<std::uint32_t> index_;     // station -> row index or kNoConn
  std::vector<std::uint8_t> flags_;      // station -> is_transfer
  std::vector<Profile> table_;           // row-major |T| x |T|
  Time period_ = kDayseconds;
};

}  // namespace pconn
