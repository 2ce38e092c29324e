// Journey extraction: turns the parent pointers of a time query into a
// human-readable itinerary (legs with trains, boarding/alighting stations
// and times). Used by the example applications.
//
// Note on semantics: the realistic time-dependent model does not track
// which physical train you sit in between route nodes of the same route —
// switching to another train of the same route at a shared stop is free
// (standard behaviour of the model [23]). Legs are therefore split whenever
// the trip actually used changes, even mid-route.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algo/time_query.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

namespace detail {
/// The trip of route r actually boarded at position k when ready at
/// absolute time t (journey.cpp).
TrainId journey_trip_used(const Timetable& tt, RouteId r, std::uint32_t k,
                          Time t);
/// The route owning a route node (binary search over the contiguous
/// per-route numbering).
RouteId route_of_node(const Timetable& tt, const TdGraph& g, NodeId v);
}  // namespace detail

struct JourneyLeg {
  TrainId train = 0;
  RouteId route = 0;
  StationId from = kInvalidStation;
  StationId to = kInvalidStation;
  Time dep = 0;  // absolute departure at `from`
  Time arr = 0;  // absolute arrival at `to`
};

struct Journey {
  StationId source = kInvalidStation;
  StationId target = kInvalidStation;
  Time departure = 0;  // requested earliest departure
  Time arrival = kInfTime;
  std::vector<JourneyLeg> legs;

  std::size_t num_transfers() const {
    return legs.empty() ? 0 : legs.size() - 1;
  }
};

/// Shared leg derivation of the flat and overlay extractors: walks a
/// flat-graph node path whose per-node ready times `ready(i)` are the
/// earliest arrivals at path[i]; every travel edge (route node -> route
/// node) on the path contributes to a leg, with the trip identified from
/// the tail's ready time. `ready` is a callable so the flat extractor can
/// read the query's distance array directly while the overlay extractor
/// feeds the times it replayed while expanding shortcuts.
template <typename ReadyFn>
void journey_legs_from_path(const Timetable& tt, const TdGraph& g,
                            std::span<const NodeId> path, ReadyFn ready,
                            Journey& j) {
  for (std::size_t idx = 0; idx + 1 < path.size(); ++idx) {
    NodeId v = path[idx], w = path[idx + 1];
    if (g.is_station_node(v) || g.is_station_node(w)) continue;  // board/alight
    const RouteId r = detail::route_of_node(tt, g, v);
    const std::uint32_t k = v - g.route_node(r, 0);
    const Time at = ready(idx);
    const TrainId used = detail::journey_trip_used(tt, r, k, at);
    const Trip& tr = tt.trip(used);
    const Time wait = delta(at, tr.departures[k], tt.period());
    const Time dep_abs = at + wait;
    const Time arr_abs = dep_abs + (tr.arrivals[k + 1] - tr.departures[k]);

    const Route& route = tt.route(r);
    if (!j.legs.empty() && j.legs.back().train == used &&
        j.legs.back().to == route.stops[k]) {
      j.legs.back().to = route.stops[k + 1];
      j.legs.back().arr = arr_abs;
    } else {
      JourneyLeg leg;
      leg.train = used;
      leg.route = r;
      leg.from = route.stops[k];
      leg.to = route.stops[k + 1];
      leg.dep = dep_abs;
      leg.arr = arr_abs;
      j.legs.push_back(leg);
    }
  }
}

/// Reconstructs the journey to `target` after q.run(source, departure).
/// std::nullopt if the target is unreachable.
std::optional<Journey> extract_journey(const Timetable& tt, const TdGraph& g,
                                       const TimeQuery& q, StationId source,
                                       Time departure, StationId target);

/// Allocation-free variant for warm sessions: reuses `out`'s leg vector and
/// `path_scratch`. Returns false (leaving `out` cleared of legs) when the
/// target is unreachable.
bool extract_journey_into(const Timetable& tt, const TdGraph& g,
                          const TimeQuery& q, StationId source,
                          Time departure, StationId target,
                          std::vector<NodeId>& path_scratch, Journey& out);

/// Multi-line plain-text rendering for the examples.
std::string describe_journey(const Timetable& tt, const Journey& j);

/// Materializes the concrete journey behind every connection point of a
/// reduced profile dist(source, target, ·): one time query per point.
/// Points whose journey cannot be reconstructed (never happens for
/// profiles produced by the engines in this library) are skipped.
std::vector<Journey> profile_journeys(const Timetable& tt, const TdGraph& g,
                                      const Profile& profile, StationId source,
                                      StationId target);

/// The latest profile point that still reaches the target by `deadline`
/// (absolute time), i.e. "when is the last bus I can take?". Returns
/// kNoConn when no point makes it.
std::uint32_t latest_departure_by(const Profile& profile, Time deadline);

}  // namespace pconn
