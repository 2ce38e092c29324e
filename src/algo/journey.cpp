#include "algo/journey.hpp"

#include <sstream>
#include <utility>

#include "algo/time_query.hpp"
#include "util/format.hpp"

namespace pconn {

namespace {

/// The trip of route r actually boarded at position k when the rider is
/// ready at absolute time t: the trip with the next departure at stop k
/// (cyclically), ties broken by earliest arrival at k+1.
TrainId journey_trip_used(const Timetable& tt, RouteId r, std::uint32_t k,
                          Time t) {
  const Route& route = tt.route(r);
  Time best_wait = kInfTime;
  Time best_arr = kInfTime;
  TrainId best = route.trips.front();
  for (TrainId id : route.trips) {
    const Trip& trip = tt.trip(id);
    Time wait = delta(t, trip.departures[k], tt.period());
    Time arr_rel = wait + (trip.arrivals[k + 1] - trip.departures[k]);
    if (wait < best_wait || (wait == best_wait && arr_rel < best_arr)) {
      best_wait = wait;
      best_arr = arr_rel;
      best = id;
    }
  }
  return best;
}

RouteId route_of_node(const Timetable& tt, const TdGraph& g, NodeId v) {
  // v is route_node(r, k): route nodes are numbered contiguously per route
  // after the station nodes, so binary-search the route whose first node is
  // the largest one <= v.
  std::uint32_t lo = 0, hi = static_cast<std::uint32_t>(tt.num_routes());
  while (lo + 1 < hi) {
    std::uint32_t mid = (lo + hi) / 2;
    if (g.route_node(mid, 0) <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void journey_legs_from_path(const Timetable& tt, const TdGraph& g,
                            std::span<const NodeId> path,
                            std::span<const Time> ready, Journey& j) {
  for (std::size_t idx = 0; idx + 1 < path.size(); ++idx) {
    NodeId v = path[idx], w = path[idx + 1];
    if (g.is_station_node(v) || g.is_station_node(w)) continue;  // board/alight
    const RouteId r = route_of_node(tt, g, v);
    const std::uint32_t k = v - g.route_node(r, 0);
    const Time at = ready[idx];
    const TrainId used = journey_trip_used(tt, r, k, at);
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

std::vector<Journey> profile_journeys(const Timetable& tt, const TdGraph& g,
                                      const Profile& profile, StationId source,
                                      StationId target) {
  std::vector<Journey> out;
  out.reserve(profile.size());
  TimeQuery q(tt, g);
  Journey j;
  for (const ProfilePoint& p : profile) {
    q.run(source, p.dep, target);
    if (q.extract_journey_into(source, p.dep, target, j)) {
      out.push_back(std::move(j));
    }
  }
  return out;
}

std::uint32_t latest_departure_by(const Profile& profile, Time deadline) {
  // Arrivals are strictly increasing in a reduced profile: binary search
  // the last point with arr <= deadline.
  std::uint32_t lo = 0, hi = static_cast<std::uint32_t>(profile.size());
  while (lo < hi) {
    std::uint32_t mid = (lo + hi) / 2;
    if (profile[mid].arr <= deadline) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? kNoConn : lo - 1;
}

std::string describe_journey(const Timetable& tt, const Journey& j) {
  std::ostringstream out;
  out << tt.station_name(j.source) << " -> " << tt.station_name(j.target)
      << ", ready at " << format_clock(j.departure, tt.period()) << ", arrive "
      << format_clock(j.arrival, tt.period()) << " ("
      << j.num_transfers() << " transfer" << (j.num_transfers() == 1 ? "" : "s")
      << ")\n";
  for (const JourneyLeg& leg : j.legs) {
    out << "  " << format_clock(leg.dep, tt.period()) << "  trip " << leg.train
        << " (route " << leg.route << ")  " << tt.station_name(leg.from)
        << " -> " << tt.station_name(leg.to) << ", arr "
        << format_clock(leg.arr, tt.period()) << "\n";
  }
  return out.str();
}

}  // namespace pconn
