// Journeys: the itinerary behind an earliest arrival (legs with trains,
// boarding/alighting stations and times). TimeQuery::extract_journey_into
// turns a time query's parent pointers into one; the example applications
// print them.
//
// Note on semantics: the realistic time-dependent model does not track
// which physical train you sit in between route nodes of the same route —
// switching to another train of the same route at a shared stop is free
// (standard behaviour of the model [23]). Legs are therefore split whenever
// the trip actually used changes, even mid-route.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

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

/// Appends to `j` the legs of a flat-graph node path whose ready times
/// ready[i] are the earliest arrivals at path[i] (the tail of
/// TimeQuery::extract_journey_into, flat and overlay-routed). Every travel
/// edge (route node -> route node) on the path contributes to a leg, with
/// the trip identified from the tail's ready time.
void journey_legs_from_path(const Timetable& tt, const TdGraph& g,
                            std::span<const NodeId> path,
                            std::span<const Time> ready, Journey& j);

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
