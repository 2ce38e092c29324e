// The engines against ground truth: a naive connection scan over the
// timetable's trips (connection_scan.hpp), which shares no code with the
// graph, its travel-time functions or any engine. Every other differential
// in the suite is relative (overlay vs flat, chunked vs whole, server vs
// session); these are the ones a bug in timetable -> graph construction
// cannot pass.
//
//  * earliest arrival: flat TimeQuery and OverlayTimeQuery at every station;
//  * profiles: flat ParallelSpcs and OverlayParallelSpcs station-to-station
//    queries (the served, chunked path), compared as functions;
// on every preset, on seeded random networks with overnight trips, on the
// chunk-boundary sources and on every epoch of a seeded delay feed;
//  * one-to-all profiles: flat and overlay one_to_all at every station of
//    every preset at full scale;
//  * Pareto fronts over (arrival, boardings): McTimeQuery at every station
//    against the scan's rounds, on every preset and the random networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/mc_query.hpp"
#include "algo/overlay_query.hpp"
#include "algo/overlay_spcs.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/spcs.hpp"
#include "algo/time_query.hpp"
#include "connection_scan.hpp"
#include "gen/generator.hpp"
#include "live/live_overlay.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

Profile as_profile(const std::vector<test::ScanProfilePoint>& points) {
  Profile p;
  for (const test::ScanProfilePoint& x : points) p.push_back({x.dep, x.arr});
  return p;
}

/// A departure in [0, period); every third one in the last half hour, so
/// the journey wraps past midnight.
Time random_departure(Rng& rng, Time period) {
  return rng.next_below(3) == 0
             ? period - 1 - static_cast<Time>(rng.next_below(1800))
             : static_cast<Time>(rng.next_below(period));
}

/// Flat and overlay earliest arrivals at every station equal the scan's,
/// from `sources` at `per_source` random departures each.
void expect_earliest_arrivals(const Timetable& tt, const TdGraph& g,
                              const OverlayGraph& ov,
                              const std::vector<StationId>& sources,
                              int per_source, std::uint64_t seed,
                              const std::string& what) {
  const test::ConnectionScan scan(tt);
  TimeQuery flat(tt, g);
  OverlayTimeQuery over(tt, g, ov);
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

/// Flat and overlay station-to-station profiles equal the scan's.
void expect_profiles(const Timetable& tt, const TdGraph& g,
                     const OverlayGraph& ov,
                     const std::vector<std::pair<StationId, StationId>>& pairs,
                     const std::string& what) {
  const test::ConnectionScan scan(tt);
  const ParallelSpcsOptions opt{.threads = 2};
  ParallelSpcs flat(tt, g, opt);
  OverlayParallelSpcs over(tt, g, ov, opt);
  for (const auto& [s, t] : pairs) {
    const Profile want = as_profile(scan.profile(s, t));
    const std::string pair =
        what + " " + std::to_string(s) + "->" + std::to_string(t);
    test::expect_same_function(flat.station_to_station(s, t).profile, want,
                               tt.period(), pair + " flat");
    test::expect_same_function(over.station_to_station(s, t).profile, want,
                               tt.period(), pair + " overlay");
  }
}

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

std::vector<StationId> random_stations(Rng& rng, const Timetable& tt,
                                       int n) {
  std::vector<StationId> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  return out;
}

TEST(GroundTruth, EarliestArrivalOnEveryPresetAtFullScale) {
  for (const gen::Preset p : gen::kAllPresets) {
    const Timetable tt = gen::make_preset(p, 1.0);
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    Rng rng(31);
    std::vector<StationId> sources = random_stations(rng, tt, 4);
    sources.push_back(test::busiest_station(tt));
    expect_earliest_arrivals(tt, g, ov, sources, 3, 32, gen::preset_name(p));
  }
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

// One oracle run per source checks both one-to-all engines at every
// station, at full generator scale: from the busiest station and from the
// station nearest a whole number of the served path's chunks.
TEST(GroundTruth, OneToAllProfilesOnEveryPresetAtFullScale) {
  for (const gen::Preset p : gen::kAllPresets) {
    const Timetable tt = gen::make_preset(p, 1.0);
    const TdGraph g = TdGraph::build(tt);
    const OverlayGraph ov = contract_graph(tt, g);
    const test::ConnectionScan scan(tt);
    const ParallelSpcsOptions opt{.threads = 2};
    ParallelSpcs flat(tt, g, opt);
    OverlayParallelSpcs over(tt, g, ov, opt);
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
