// The engines against ground truth: a naive connection scan over the
// timetable's trips (connection_scan.hpp), which shares no code with the
// graph, its travel-time functions or any engine. Every other differential
// in the suite is relative (overlay vs flat, chunked vs whole, server vs
// session); these are the ones a bug in timetable -> graph construction
// cannot pass. The full-scale cases are ground_truth_full_test.cpp, a
// second executable so that ctest runs the two side by side.
//
//  * earliest arrival: TimeQuery, flat and overlay-routed, at every station;
//  * profiles: flat and overlay-routed ParallelSpcs station-to-station
//    queries (the served, chunked path), compared as functions;
// on seeded random networks with overnight trips, on the chunk-boundary
// sources and on every epoch of a seeded delay feed, and the profiles also
// on every preset at scale 0.3;
//  * Pareto fronts over (arrival, boardings): McTimeQuery at every station
//    against the scan's rounds, on every preset and the random networks.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/mc_query.hpp"
#include "algo/spcs.hpp"
#include "gen/generator.hpp"
#include "ground_truth.hpp"
#include "live/live_overlay.hpp"

namespace pconn {
namespace {

using test::expect_earliest_arrivals;
using test::expect_profiles;
using test::random_departure;
using test::random_stations;

/// McTimeQuery's Pareto front at every station equals the scan's, from
/// `sources` at `per_source` random departures each, with at most
/// `max_boards` boardings. Returns how many compared fronts held a
/// trade-off (more than one label), so callers can show the check is not
/// vacuous.
std::size_t expect_pareto_fronts(const Timetable& tt, const TdGraph& g,
                                 const std::vector<StationId>& sources,
                                 int per_source, std::uint32_t max_boards,
                                 std::uint64_t seed, const std::string& what) {
  const test::ConnectionScan scan(tt);
  McTimeQuery mc(tt, g);
  Rng rng(seed);
  std::size_t mismatches = 0, trade_offs = 0;
  for (const StationId s : sources) {
    for (int i = 0; i < per_source; ++i) {
      const Time tau = random_departure(rng, tt.period());
      const auto want = scan.pareto_fronts(s, tau, max_boards);
      mc.run(s, tau, max_boards);
      for (StationId v = 0; v < tt.num_stations(); ++v) {
        const std::span<const McLabel> got = mc.pareto(v);
        if (want[v].size() > 1) ++trade_offs;
        bool same = got.size() == want[v].size();
        for (std::size_t l = 0; same && l < got.size(); ++l) {
          same = got[l].arr == want[v][l].arr &&
                 got[l].boards == want[v][l].boards;
        }
        if (!same && ++mismatches <= 5) {
          std::string labels;
          for (const test::ScanLabel& x : want[v]) {
            labels += " (" + std::to_string(x.arr) + ", " +
                      std::to_string(x.boards) + ")";
          }
          ADD_FAILURE() << what << ": Pareto front " << s << "->" << v
                        << " at " << tau << " has " << got.size()
                        << " labels, the scan says" << labels;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  return trade_offs;
}

TEST(GroundTruth, ProfilesOnEveryPreset) {
  for (const gen::Preset p : gen::kAllPresets) {
    const Timetable tt = gen::make_preset(p, 0.3);
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    Rng rng(41);
    std::vector<std::pair<StationId, StationId>> pairs;
    std::vector<StationId> sources = random_stations(rng, tt, 2);
    sources.push_back(test::busiest_station(tt));
    for (const StationId s : sources) {
      for (const StationId t : random_stations(rng, tt, 4)) {
        if (t != s) pairs.emplace_back(s, t);
      }
    }
    expect_profiles(tt, g, ov, pairs, gen::preset_name(p));
  }
}

TEST(GroundTruth, ParetoFrontsOnEveryPreset) {
  for (const gen::Preset p : gen::kAllPresets) {
    const Timetable tt = gen::make_preset(p, 0.3);
    const TdGraph g = TdGraph::build(tt);
    Rng rng(51);
    std::vector<StationId> sources = random_stations(rng, tt, 2);
    sources.push_back(test::busiest_station(tt));
    // McTimeQuery::run's default cap.
    EXPECT_GT(expect_pareto_fronts(tt, g, sources, 3, 16, 52,
                                   gen::preset_name(p)),
              0u)
        << gen::preset_name(p) << ": no front with a trade-off";
  }
}

// random_timetable draws first departures over the whole period, so the
// late trips run past midnight and their later hops wrap into the next
// period.
TEST(GroundTruth, RandomNetworksWithOvernightTrips) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const Timetable tt = test::random_timetable(rng, 12, 10, 8);
    bool overnight = false;
    for (TrainId z = 0; z < tt.num_trips(); ++z) {
      overnight = overnight || tt.trip(z).arrivals.back() >= tt.period();
    }
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    const std::string what = "random network " + std::to_string(seed);
    std::vector<StationId> all(tt.num_stations());
    std::vector<std::pair<StationId, StationId>> pairs;
    for (StationId s = 0; s < tt.num_stations(); ++s) {
      all[s] = s;
      for (StationId t = 0; t < tt.num_stations(); ++t) {
        if (s != t) pairs.emplace_back(s, t);
      }
    }
    expect_earliest_arrivals(tt, g, ov, all, 3, seed, what);
    expect_profiles(tt, g, ov, pairs, what);
    // The default cap, and a tight one that cuts journeys off.
    for (const std::uint32_t cap : {16u, 2u}) {
      expect_pareto_fronts(tt, g, all, 3, cap, seed,
                           what + " max_boards " + std::to_string(cap));
    }
    EXPECT_TRUE(overnight) << what << " has no overnight trip";
  }
}

// Sources with |conn(S)| = 0, 1 and each side of one and two kSpcsChunk-wide
// chunks: the served profile path walks conn(S) in chunks of 32.
TEST(GroundTruth, ChunkBoundarySources) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Timetable tt = test::chunk_boundary_network(seed);
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    const std::string what = "chunk network " + std::to_string(seed);
    std::vector<StationId> sources;
    std::vector<std::pair<StationId, StationId>> pairs;
    for (StationId s = 0; s < std::size(test::kChunkBoundaryCounts); ++s) {
      ASSERT_EQ(tt.outgoing(s).size(), test::kChunkBoundaryCounts[s]);
      sources.push_back(s);
      for (StationId t = 0; t < tt.num_stations(); ++t) {
        if (s != t) pairs.emplace_back(s, t);
      }
    }
    expect_earliest_arrivals(tt, g, ov, sources, 3, seed, what);
    expect_profiles(tt, g, ov, pairs, what);
  }
}

// Every epoch a seeded feed of delays, cancellations and relief runs
// publishes, whether by re-link or by re-contraction.
TEST(GroundTruth, EveryEpochOfADelayFeed) {
  LiveOverlay live(test::small_city(61));
  Rng rng(62);
  const auto check = [&](const LiveSnapshot& snap) {
    const Timetable& tt = *snap.tt;
    const std::string what = "epoch " + std::to_string(snap.epoch);
    ASSERT_NE(snap.overlay, nullptr) << what;
    const std::vector<StationId> sources = random_stations(rng, tt, 3);
    expect_earliest_arrivals(tt, *snap.graph, *snap.overlay, sources, 2,
                             rng.next_u64(), what);
    std::vector<std::pair<StationId, StationId>> pairs;
    for (const StationId t : random_stations(rng, tt, 3)) {
      if (t != sources[0]) pairs.emplace_back(sources[0], t);
    }
    expect_profiles(tt, *snap.graph, *snap.overlay, pairs, what);
  };
  check(*live.snapshot());
  for (int event = 0; event < 15; ++event) {
    const std::shared_ptr<const LiveSnapshot> snap = live.snapshot();
    const Timetable& tt = *snap->tt;
    const auto train = static_cast<TrainId>(rng.next_below(tt.num_trips()));
    const Time t = static_cast<Time>(rng.next_below(tt.period()));
    DelayEvent ev;
    if (event % 5 == 3) {
      ev = DelayEvent::cancelled(train);
    } else if (event % 5 == 4) {
      // A relief run between the first two stops of a random trip.
      const Route route = tt.route(tt.trip(train).route);
      ev = DelayEvent::extra_trip(
          {{route.stops[0], t, t}, {route.stops[1], t + 900, t + 900}});
    } else {
      const auto stops =
          static_cast<std::uint32_t>(tt.trip(train).arrivals.size());
      ev = DelayEvent::delayed(
          train, static_cast<std::uint32_t>(rng.next_below(stops - 1)),
          60 + t % 1800);
    }
    const ApplyResult r = live.apply(ev);
    ASSERT_NE(r.status, ApplyStatus::kRejected) << r.error;
    ASSERT_NE(r.status, ApplyStatus::kDegraded) << r.error;
    check(*live.snapshot());
  }
  EXPECT_EQ(live.epoch(), 15u);
  // Both publishing paths ran.
  EXPECT_GT(live.stats().relinks, 0u);
  EXPECT_GT(live.stats().recontractions, 0u);
}

}  // namespace
}  // namespace pconn
