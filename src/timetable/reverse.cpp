#include "timetable/reverse.hpp"

#include <stdexcept>

#include "timetable/builder.hpp"

namespace pconn {

Timetable make_reverse_timetable(const Timetable& tt) {
  TimetableBuilder builder(tt.period());
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    builder.add_station(std::string(tt.station_name(s)), tt.transfer_time(s));
  }
  // Mirror horizon: a multiple of the period at least as large as any trip
  // time, so the mirrored clock keeps the same periodic phase.
  Time max_time = 0;
  for (TrainId t = 0; t < tt.num_trips(); ++t) {
    const Trip& trip = tt.trip(t);
    max_time = std::max(max_time, trip.departures.back());
    max_time = std::max(max_time, trip.arrivals.back());
  }
  const Time horizon =
      ((max_time / tt.period()) + 1) * tt.period();

  for (TrainId t = 0; t < tt.num_trips(); ++t) {
    const Trip& trip = tt.trip(t);
    const Route& route = tt.route(trip.route);
    const std::size_t n = route.stops.size();
    std::vector<TimetableBuilder::StopTime> stops(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t j = n - 1 - k;
      stops[k].station = route.stops[j];
      // Mirrored: the original departure becomes the reversed arrival.
      stops[k].arrival = horizon - trip.departures[j];
      stops[k].departure = horizon - trip.arrivals[j];
    }
    // The forward route as the group: the engines let a passenger switch
    // trips within a route for free, so the mirror must keep each route's
    // trips together and apart from the rest. Grouped by stops alone, the
    // greedy non-overtaking split on the mirrored clock chains some trips
    // differently (losangeles-like and washington-like presets).
    builder.add_trip(stops, trip.route);
  }
  Timetable reversed = builder.finalize();
  if (reversed.num_routes() != tt.num_routes()) {
    throw std::logic_error(
        "reverse timetable: a forward route did not stay one route");
  }
  return reversed;
}

}  // namespace pconn
