// Arrive-by profiles against the connection-scan oracle
// (connection_scan.hpp) on every preset at full generator scale: flat and
// overlay station_to_station into the busiest station and one random
// target, from sampled sources — the profiles pconn_cli arrive-by and
// examples/arrive_by read latest_departure_by off. The longest
// ground-truth case, in its own executable so that ctest runs it beside
// ground_truth_full_test's one-to-all case.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "ground_truth.hpp"

namespace pconn {
namespace {

using test::expect_profiles;
using test::full_scale;
using test::random_stations;

// Arrive-by answers read latest_departure_by off a forward
// station-to-station profile into the deadline's station, so the scan
// checks those profiles into the busiest station and one random target,
// from sampled sources.
TEST(GroundTruth, ArriveByProfilesOnEveryPresetAtFullScale) {
  for (const gen::Preset p : gen::kAllPresets) {
    const auto& [tt, g, ov] = full_scale(p);
    const std::string name = gen::preset_name(p);
    Rng rng(61);
    for (const StationId t :
         {test::busiest_station(tt),
          static_cast<StationId>(rng.next_below(tt.num_stations()))}) {
      std::vector<StationId> sources = random_stations(rng, tt, 6);
      sources.push_back(test::busiest_station(tt));
      std::vector<std::pair<StationId, StationId>> pairs;
      for (const StationId s : sources) {
        if (s != t) pairs.emplace_back(s, t);
      }
      EXPECT_GT(expect_profiles(tt, g, ov, pairs, name + " arrive-by"), 0u)
          << name << " into " << t;
    }
  }
}

}  // namespace
}  // namespace pconn
