#include "live/delay_feed.hpp"

#include <stdexcept>
#include <string>

namespace pconn {

namespace {

[[noreturn]] void reject(const std::string& why) {
  throw std::invalid_argument("delay event rejected: " + why);
}

}  // namespace

Timetable apply_event(const Timetable& tt, const DelayEvent& ev) {
  switch (ev.kind) {
    case DelayEvent::Kind::kDelay:
      if (ev.train >= tt.num_trips()) reject("unknown trip id");
      if (ev.delay == 0) reject("zero delay");
      if (ev.delay >= tt.period()) reject("delay exceeds the period");
      if (ev.from_stop >= tt.route(tt.trip(ev.train).route).stops.size()) {
        reject("hold stop beyond the trip's route");
      }
      break;
    case DelayEvent::Kind::kCancel:
      if (ev.train >= tt.num_trips()) reject("unknown trip id");
      if (tt.num_trips() == 1) reject("cancelling the only trip");
      break;
    case DelayEvent::Kind::kExtraTrip:
      // Stop-level validation is the builder's job below; only the station
      // ids need a pre-check (the builder indexes them).
      for (const TimetableBuilder::StopTime& s : ev.stops) {
        if (s.station >= tt.num_stations()) reject("unknown station id");
      }
      break;
  }

  TimetableBuilder b(tt.period());
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    b.add_station(std::string(tt.station_name(s)), tt.transfer_time(s));
  }
  std::vector<TimetableBuilder::StopTime> stops;
  for (TrainId t = 0; t < tt.num_trips(); ++t) {
    if (ev.kind == DelayEvent::Kind::kCancel && t == ev.train) continue;
    const Trip& trip = tt.trip(t);
    const Route& route = tt.route(trip.route);
    stops.clear();
    for (std::size_t k = 0; k < route.stops.size(); ++k) {
      Time arr = trip.arrivals[k];
      Time dep = trip.departures[k];
      if (ev.kind == DelayEvent::Kind::kDelay && t == ev.train) {
        // Hold at from_stop: its arrival is unchanged, its departure and
        // everything after shift together (the vehicle waits, then runs
        // its normal drive times).
        if (k > ev.from_stop) arr += ev.delay;
        if (k >= ev.from_stop) dep += ev.delay;
      }
      stops.push_back({route.stops[k], arr, dep});
    }
    b.add_trip(stops);
  }
  if (ev.kind == DelayEvent::Kind::kExtraTrip) b.add_trip(ev.stops);
  return b.finalize();
}

}  // namespace pconn
