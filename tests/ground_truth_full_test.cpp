// The engines against the connection-scan oracle (connection_scan.hpp) on
// every preset at full generator scale — the cases too slow for
// ground_truth_test.cpp, in their own executable so that ctest runs the
// suites side by side:
//
//  * earliest arrival: TimeQuery, flat and overlay-routed, at every station;
//  * journeys: both TimeQuery modes' legs against the trips they ride;
//  * one-to-all profiles: flat and overlay one_to_all at every station.
//
// The arrive-by profiles, the other long case, are
// ground_truth_arrive_by_test's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algo/parallel_spcs.hpp"
#include "algo/spcs.hpp"
#include "algo/time_query.hpp"
#include "gen/generator.hpp"
#include "ground_truth.hpp"

namespace pconn {
namespace {

using test::as_profile;
using test::expect_earliest_arrivals;
using test::full_scale;
using test::random_departure;
using test::random_stations;

/// The station whose departures come closest to filling whole
/// kSpcsChunk-wide chunks (|conn(S)| nearest a nonzero multiple of
/// kSpcsChunk; the lowest id among equals). germany-like has no station
/// at 32k or 32k + 1 departures, the other presets do.
StationId chunk_boundary_station(const Timetable& tt) {
  StationId best = 0;
  std::size_t best_gap = SIZE_MAX;
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    const std::size_t n = tt.outgoing(s).size();
    const std::size_t chunks =
        std::max<std::size_t>(1, (n + kSpcsChunk / 2) / kSpcsChunk);
    const std::size_t whole = chunks * kSpcsChunk;
    const std::size_t gap = n > whole ? n - whole : whole - n;
    if (gap < best_gap) {
      best = s;
      best_gap = gap;
    }
  }
  return best;
}

TEST(GroundTruth, EarliestArrivalOnEveryPresetAtFullScale) {
  for (const gen::Preset p : gen::kAllPresets) {
    const auto& [tt, g, ov] = full_scale(p);
    Rng rng(31);
    std::vector<StationId> sources = random_stations(rng, tt, 4);
    sources.push_back(test::busiest_station(tt));
    expect_earliest_arrivals(tt, g, ov, sources, 3, 32, gen::preset_name(p));
  }
}

/// Every leg of `j` (from s at tau to t) checked against the timetable's
/// trips: it rides one trip of its route from `from` to `to` at that
/// trip's times (modulo the period), legs meet at a station, and a change
/// of route there waits at least the station's transfer time. Returns the
/// first violation, empty when there is none.
std::string journey_fault(const Timetable& tt, const Journey& j, StationId s,
                          Time tau, StationId t) {
  if (j.legs.empty()) return "no legs";
  if (j.legs.front().from != s) return "first leg does not leave the source";
  if (j.legs.front().dep < tau) return "first leg leaves before tau";
  if (j.legs.back().to != t) return "last leg does not reach the target";
  if (j.legs.back().arr != j.arrival) return "last leg arrival != arrival";
  const Time period = tt.period();
  for (std::size_t i = 0; i < j.legs.size(); ++i) {
    const JourneyLeg& leg = j.legs[i];
    const std::string at = "leg " + std::to_string(i) + ": ";
    const Trip& trip = tt.trip(leg.train);
    if (trip.route != leg.route) return at + "train not of its route";
    const std::span<const StationId> stops = tt.route(leg.route).stops;
    bool rides = false;
    for (std::size_t k = 0; !rides && k < stops.size(); ++k) {
      if (stops[k] != leg.from ||
          trip.departures[k] % period != leg.dep % period) {
        continue;
      }
      for (std::size_t m = k + 1; !rides && m < stops.size(); ++m) {
        rides = stops[m] == leg.to &&
                leg.arr - leg.dep == trip.arrivals[m] - trip.departures[k];
      }
    }
    if (!rides) return at + "no ride of its trip matches from/to/dep/arr";
    if (i == 0) continue;
    const JourneyLeg& prev = j.legs[i - 1];
    if (prev.to != leg.from) return at + "does not start where the last ended";
    const Time change =
        prev.route == leg.route ? 0 : tt.transfer_time(leg.from);
    if (leg.dep < prev.arr + change) return at + "transfer too short";
  }
  return "";
}

// Journeys of both engine modes against the timetable: the arrival is the
// scan's, and every leg is a real ride with feasible transfers.
TEST(GroundTruth, JourneysOnEveryPresetAtFullScale) {
  for (const gen::Preset p : gen::kAllPresets) {
    const auto& [tt, g, ov] = full_scale(p);
    const test::ConnectionScan scan(tt);
    const std::string name = gen::preset_name(p);
    TimeQuery flat(tt, g);
    TimeQuery over(tt, g, ov);
    Rng rng(71);
    std::vector<StationId> sources = random_stations(rng, tt, 3);
    sources.push_back(test::busiest_station(tt));
    std::size_t journeys = 0, multi_leg = 0;
    Journey j;
    for (const StationId s : sources) {
      // A random departure, and one whose journeys run past midnight.
      for (const Time tau : {random_departure(rng, tt.period()),
                             tt.period() - 600}) {
        const std::vector<Time> want = scan.earliest_arrivals(s, tau);
        flat.run(s, tau);
        over.run(s, tau);
        for (const StationId t : random_stations(rng, tt, 8)) {
          if (t == s) continue;
          for (auto [mode, q] : {std::pair{"flat", &flat},
                                 std::pair{"overlay", &over}}) {
            const std::string what = name + " " + mode + " " +
                                     std::to_string(s) + "->" +
                                     std::to_string(t) + " at " +
                                     std::to_string(tau);
            const bool found = q->extract_journey_into(s, tau, t, j);
            ASSERT_EQ(found, want[t] != kInfTime) << what;
            if (!found) continue;
            EXPECT_EQ(j.arrival, want[t]) << what;
            const std::string fault = journey_fault(tt, j, s, tau, t);
            EXPECT_EQ(fault, "") << what;
            ++journeys;
            if (j.legs.size() > 1) ++multi_leg;
          }
        }
      }
    }
    EXPECT_GT(journeys, 0u) << name;
    EXPECT_GT(multi_leg, 0u) << name << ": no journey with a transfer";
  }
}

// One oracle run per source checks both one-to-all engines at every
// station, at full generator scale: from the busiest station and from the
// station nearest a whole number of the served path's chunks.
TEST(GroundTruth, OneToAllProfilesOnEveryPresetAtFullScale) {
  for (const gen::Preset p : gen::kAllPresets) {
    const auto& [tt, g, ov] = full_scale(p);
    const test::ConnectionScan scan(tt);
    const ParallelSpcsOptions opt{.threads = 2};
    ParallelSpcs flat(tt, g, opt);
    ParallelSpcs over(tt, g, ov, opt);
    const std::string name = gen::preset_name(p);
    for (const StationId s :
         {test::busiest_station(tt), chunk_boundary_station(tt)}) {
      const auto want = scan.one_to_all_profiles(s);
      const OneToAllResult rf = flat.one_to_all(s);
      const OneToAllResult ro = over.one_to_all(s);
      std::size_t reached = 0;
      for (StationId v = 0; v < tt.num_stations(); ++v) {
        if (v == s) continue;
        const Profile w = as_profile(want[v]);
        if (!w.empty()) ++reached;
        const std::string pair =
            name + " " + std::to_string(s) + "->" + std::to_string(v);
        test::expect_same_function(rf.profiles[v], w, tt.period(),
                                   pair + " flat");
        test::expect_same_function(ro.profiles[v], w, tt.period(),
                                   pair + " overlay");
      }
      EXPECT_GT(reached, tt.num_stations() / 2) << name << " from " << s;
    }
  }
}

}  // namespace
}  // namespace pconn
