#include "timetable/validation.hpp"

namespace pconn {

ValidationReport validate(const Timetable& tt) {
  ValidationReport rep;
  auto fail = [&rep](std::string msg) { rep.problems.push_back(std::move(msg)); };

  std::size_t expected_conns = 0;
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    const Route& route = tt.route(r);
    if (route.stops.size() < 2) {
      fail("route " + std::to_string(r) + ": fewer than 2 stops");
      continue;
    }
    const std::size_t n = route.stops.size();
    for (std::size_t i = 0; i < route.trips.size(); ++i) {
      const Trip& trip = tt.trip(route.trips[i]);
      if (trip.route != r) {
        fail("trip " + std::to_string(route.trips[i]) +
             ": route back-reference mismatch");
      }
      if (trip.arrivals.size() != n || trip.departures.size() != n) {
        fail("trip " + std::to_string(route.trips[i]) +
             ": time vector length != route stops");
        continue;
      }
      for (std::size_t k = 0; k < n; ++k) {
        if (trip.departures[k] < trip.arrivals[k]) {
          fail("trip " + std::to_string(route.trips[i]) +
               ": departs before arriving at stop " + std::to_string(k));
        }
        if (k > 0 && trip.arrivals[k] < trip.departures[k - 1] + 1) {
          fail("trip " + std::to_string(route.trips[i]) +
               ": hop shorter than 1s into stop " + std::to_string(k));
        }
      }
      if (i > 0) {
        const Trip& prev = tt.trip(route.trips[i - 1]);
        for (std::size_t k = 0; k < n; ++k) {
          if (prev.arrivals[k] > trip.arrivals[k] ||
              prev.departures[k] > trip.departures[k]) {
            fail("route " + std::to_string(r) + ": trips " +
                 std::to_string(route.trips[i - 1]) + " and " +
                 std::to_string(route.trips[i]) + " overtake at stop " +
                 std::to_string(k));
            break;
          }
        }
      }
      expected_conns += n - 1;
    }
  }
  if (expected_conns != tt.num_connections()) {
    fail("connection count " + std::to_string(tt.num_connections()) +
         " != expected " + std::to_string(expected_conns));
  }

  for (StationId s = 0; s < tt.num_stations(); ++s) {
    const ConnectionView conns = tt.outgoing(s);
    Time prev_dep = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      // The stored reference must name a departure stop of its trip
      // before anything is decoded through it.
      const ConnRef ref = conns.refs()[i];
      if (ref.train >= tt.num_trips() ||
          std::size_t{ref.pos} + 1 >=
              tt.route(tt.trip(ref.train).route).stops.size()) {
        fail("connection does not reference a departure stop of its trip");
        continue;
      }
      const Connection c = conns[i];
      if (c.from != s) fail("conn index: wrong station bucket");
      if (c.arr < c.dep + 1) fail("connection duration < 1s");
      if (prev_dep > c.dep) {
        fail("conn(" + std::to_string(s) + ") not sorted by departure");
      }
      prev_dep = c.dep;
    }
  }
  return rep;
}

}  // namespace pconn
