// Shared fixtures: hand-built micro timetables and random-timetable
// generation for property tests.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/builder.hpp"
#include "timetable/timetable.hpp"
#include "util/rng.hpp"

namespace pconn::test {

/// Three stations A-B-C on one line plus a slower direct A-C line; several
/// departures. Small enough to reason about by hand.
inline Timetable tiny_line() {
  TimetableBuilder b;
  StationId a = b.add_station("A", 60);
  StationId s2 = b.add_station("B", 120);
  StationId c = b.add_station("C", 60);
  using St = TimetableBuilder::StopTime;
  // Line 1: A -> B -> C, hourly 08:00..11:00, 10 min per hop, 1 min dwell.
  for (Time t = 8 * 3600; t <= 11 * 3600; t += 3600) {
    b.add_trip(std::vector<St>{{a, t, t},
                               {s2, t + 600, t + 660},
                               {c, t + 1260, t + 1260}});
  }
  // Line 2: direct A -> C, departs on the half hour, 35 min ride.
  for (Time t = 8 * 3600 + 1800; t <= 11 * 3600 + 1800; t += 3600) {
    b.add_trip(std::vector<St>{{a, t, t}, {c, t + 2100, t + 2100}});
  }
  return b.finalize();
}

/// Random connected-ish timetable: `lines` random simple paths over
/// `stations` stations with random (but non-overtaking, thanks to the
/// builder) departures. Ideal for oracle-equivalence sweeps.
inline Timetable random_timetable(Rng& rng, std::uint32_t stations,
                                  std::uint32_t lines,
                                  std::uint32_t trips_per_line) {
  TimetableBuilder b;
  for (std::uint32_t s = 0; s < stations; ++s) {
    b.add_station("S" + std::to_string(s),
                  static_cast<Time>(rng.next_in(0, 300)));
  }
  using St = TimetableBuilder::StopTime;
  for (std::uint32_t l = 0; l < lines; ++l) {
    // Random simple path of length 2..min(6, stations).
    std::vector<StationId> perm(stations);
    for (std::uint32_t s = 0; s < stations; ++s) perm[s] = s;
    rng.shuffle(perm);
    std::size_t len =
        2 + static_cast<std::size_t>(rng.next_below(std::min<std::uint32_t>(5, stations - 1)));
    perm.resize(std::min<std::size_t>(len, stations));
    std::vector<Time> hop(perm.size() - 1);
    for (auto& h : hop) h = static_cast<Time>(60 + rng.next_below(1800));
    for (std::uint32_t k = 0; k < trips_per_line; ++k) {
      Time t = static_cast<Time>(rng.next_below(kDayseconds));
      std::vector<St> stops;
      for (std::size_t i = 0; i < perm.size(); ++i) {
        Time dwell = static_cast<Time>(rng.next_below(120));
        stops.push_back({perm[i], t, t + (i + 1 < perm.size() ? dwell : 0)});
        if (i + 1 < perm.size()) t += dwell + hop[i];
      }
      b.add_trip(stops);
    }
  }
  return b.finalize();
}

/// |conn(S)| of the sources of chunk_boundary_network: empty, one, and each
/// side of one and two 32-connection chunks (kSpcsChunk, algo/spcs.hpp).
inline constexpr std::uint32_t kChunkBoundaryCounts[] = {0,  1,  31, 32,
                                                         33, 64, 65};

/// Seeded random network whose station i (i < 7) has exactly
/// kChunkBoundaryCounts[i] departures. Source trips leave on three lines per
/// source into a random hub network and may end at another source; about
/// one trip in six leaves in the last 25 minutes of the period, so its
/// later hops wrap past midnight.
inline Timetable chunk_boundary_network(std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::uint32_t kSources = std::size(kChunkBoundaryCounts);
  constexpr std::uint32_t kHubs = 10;
  TimetableBuilder b;
  for (std::uint32_t s = 0; s < kSources + kHubs; ++s) {
    b.add_station("S" + std::to_string(s),
                  static_cast<Time>(rng.next_in(0, 180)));
  }
  const auto hub = [&] {
    return static_cast<StationId>(kSources + rng.next_below(kHubs));
  };
  const auto departure = [&] {
    return rng.next_below(6) == 0
               ? static_cast<Time>(kDayseconds - 1 - rng.next_below(1500))
               : static_cast<Time>(rng.next_below(kDayseconds));
  };
  using St = TimetableBuilder::StopTime;
  // Adds `trips` trips along `path` (fixed hop times, so no overtaking);
  // the first stop departs, the last only arrives.
  const auto add_line = [&](const std::vector<StationId>& path,
                            std::uint32_t trips) {
    std::vector<Time> hop(path.size() - 1);
    for (Time& h : hop) h = static_cast<Time>(120 + rng.next_below(1500));
    for (std::uint32_t k = 0; k < trips; ++k) {
      Time t = departure();
      std::vector<St> stops;
      for (std::size_t i = 0; i < path.size(); ++i) {
        const Time dwell = i + 1 < path.size() ? 30 : 0;
        stops.push_back({path[i], t, t + dwell});
        if (i + 1 < path.size()) t += dwell + hop[i];
      }
      b.add_trip(stops);
    }
  };
  for (std::uint32_t l = 0; l < 14; ++l) {
    std::vector<StationId> path{hub()};
    while (path.size() < 4) {
      const StationId h = hub();
      if (h != path.back()) path.push_back(h);
    }
    // Some hub lines end at a source: sources are targets too.
    if (l % 3 == 0) path.push_back(static_cast<StationId>(l % kSources));
    add_line(path, 6 + static_cast<std::uint32_t>(rng.next_below(10)));
  }
  for (std::uint32_t s = 0; s < kSources; ++s) {
    const std::uint32_t count = kChunkBoundaryCounts[s];
    for (std::uint32_t line = 0; line < 3; ++line) {
      std::vector<StationId> path{static_cast<StationId>(s), hub()};
      path.push_back(path.back() == kSources ? kSources + 1 : kSources);
      if (line == 2) {
        path.push_back(static_cast<StationId>((s + 1) % kSources));
      }
      add_line(path, count / 3 + (line < count % 3 ? 1 : 0));
    }
  }
  return b.finalize();
}

/// The station with the most departures: the widest conn(S).
inline StationId busiest_station(const Timetable& tt) {
  StationId best = 0;
  for (StationId s = 1; s < tt.num_stations(); ++s) {
    if (tt.outgoing(s).size() > tt.outgoing(best).size()) best = s;
  }
  return best;
}

/// Small bus city used across algorithm tests.
inline Timetable small_city(std::uint64_t seed = 7) {
  gen::BusCityConfig cfg;
  cfg.districts_x = 2;
  cfg.districts_y = 2;
  cfg.district_w = 3;
  cfg.district_h = 3;
  cfg.express_lines = 1;
  cfg.frequency.base_headway = 1200;
  cfg.seed = seed;
  return gen::make_bus_city(cfg);
}

/// Small railway used across algorithm and s2s tests.
inline Timetable small_railway(std::uint64_t seed = 9) {
  gen::RailwayConfig cfg;
  cfg.hubs = 4;
  cfg.extra_hub_links = 1;
  cfg.intercity_stops = 1;
  cfg.regional_lines_per_hub = 2;
  cfg.regional_length = 3;
  cfg.seed = seed;
  return gen::make_railway(cfg);
}

/// Exhaustive Bellman-Ford-style relaxation over the time-dependent graph:
/// a slow but obviously-correct oracle for earliest arrivals from `src` at
/// absolute time `tau` (same source-boarding convention as TimeQuery).
inline std::vector<Time> brute_force_arrivals(const TdGraph& g, NodeId src,
                                              Time tau) {
  std::vector<Time> arr(g.num_nodes(), kInfTime);
  arr[src] = tau;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (arr[v] == kInfTime) continue;
      for (const TdGraph::Edge& e : g.out_edges(v)) {
        Time t = (v == src && e.ttf == kNoTtf) ? arr[v]
                                               : g.arrival_via(e, arr[v]);
        if (t != kInfTime && t < arr[e.head]) {
          arr[e.head] = t;
          changed = true;
        }
      }
    }
  }
  return arr;
}

/// Asserts that two reduced profiles describe the same travel-time
/// function: equal evaluation at every departure point of either plus a
/// sample grid over the period.
inline void expect_same_function(const Profile& a, const Profile& b,
                                 Time period, const std::string& what) {
  for (const ProfilePoint& p : a) {
    EXPECT_EQ(eval_profile(a, p.dep, period), eval_profile(b, p.dep, period))
        << what << " at dep " << p.dep;
  }
  for (const ProfilePoint& p : b) {
    EXPECT_EQ(eval_profile(a, p.dep, period), eval_profile(b, p.dep, period))
        << what << " at dep " << p.dep;
  }
  for (Time t = 0; t < period; t += period / 97 + 1) {
    EXPECT_EQ(eval_profile(a, t, period), eval_profile(b, t, period))
        << what << " at sample " << t;
  }
}

}  // namespace pconn::test
