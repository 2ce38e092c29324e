// Helpers shared by the ground-truth suites (ground_truth_test: small and
// random networks, scale 0.3 and live epochs; ground_truth_full_test: every
// preset at full generator scale). Both compare the engines against the
// naive connection scan of connection_scan.hpp.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algo/parallel_spcs.hpp"
#include "algo/time_query.hpp"
#include "connection_scan.hpp"
#include "graph/overlay_graph.hpp"
#include "test_util.hpp"

namespace pconn::test {

inline Profile as_profile(const std::vector<ScanProfilePoint>& points) {
  Profile p;
  for (const ScanProfilePoint& x : points) p.push_back({x.dep, x.arr});
  return p;
}

/// A departure in [0, period); every third one in the last half hour, so
/// the journey wraps past midnight.
inline Time random_departure(Rng& rng, Time period) {
  return rng.next_below(3) == 0
             ? period - 1 - static_cast<Time>(rng.next_below(1800))
             : static_cast<Time>(rng.next_below(period));
}

inline std::vector<StationId> random_stations(Rng& rng, const Timetable& tt,
                                              int n) {
  std::vector<StationId> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  return out;
}

/// Flat and overlay earliest arrivals at every station equal the scan's,
/// from `sources` at `per_source` random departures each.
inline void expect_earliest_arrivals(const Timetable& tt, const TdGraph& g,
                                     const OverlayGraph& ov,
                                     const std::vector<StationId>& sources,
                                     int per_source, std::uint64_t seed,
                                     const std::string& what) {
  const ConnectionScan scan(tt);
  TimeQuery flat(tt, g);
  TimeQuery over(tt, g, ov);
  Rng rng(seed);
  std::size_t mismatches = 0;
  for (const StationId s : sources) {
    for (int i = 0; i < per_source; ++i) {
      const Time tau = random_departure(rng, tt.period());
      const std::vector<Time> want = scan.earliest_arrivals(s, tau);
      flat.run(s, tau);
      over.run(s, tau);
      for (StationId v = 0; v < tt.num_stations(); ++v) {
        for (const auto& [engine, got] :
             {std::pair{"flat", flat.arrival_at(v)},
              std::pair{"overlay", over.arrival_at(v)}}) {
          if (got != want[v] && ++mismatches <= 5) {
            ADD_FAILURE() << what << ": " << engine << " EA " << s << "->"
                          << v << " at " << tau << " is " << got
                          << ", the scan says " << want[v];
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

/// Flat and overlay station-to-station profiles equal the scan's. Returns
/// how many pairs the scan connects, so callers can show the check is not
/// vacuous.
inline std::size_t expect_profiles(
    const Timetable& tt, const TdGraph& g, const OverlayGraph& ov,
    const std::vector<std::pair<StationId, StationId>>& pairs,
    const std::string& what) {
  const ConnectionScan scan(tt);
  const ParallelSpcsOptions opt{.threads = 2};
  ParallelSpcs flat(tt, g, opt);
  ParallelSpcs over(tt, g, ov, opt);
  std::size_t reached = 0;
  for (const auto& [s, t] : pairs) {
    const Profile want = as_profile(scan.profile(s, t));
    if (!want.empty()) ++reached;
    const std::string pair =
        what + " " + std::to_string(s) + "->" + std::to_string(t);
    expect_same_function(flat.station_to_station(s, t).profile, want,
                         tt.period(), pair + " flat");
    expect_same_function(over.station_to_station(s, t).profile, want,
                         tt.period(), pair + " overlay");
  }
  return reached;
}

}  // namespace pconn::test
