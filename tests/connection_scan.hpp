// Ground truth for the realistic time-dependent route model: a naive
// connection scan (Dibbelt, Pajor, Strasser, Wagner, "Intriguingly Simple
// and Fast Transit Routing", SEA 2013) that shares no code with the
// graph/TTF/Dijkstra stack. It reads only the timetable's route and trip
// rows — not connections() or outgoing(), which come from the same builder
// pass the engines read — so a bug in timetable -> graph construction, in
// a travel-time function or in a query engine shows up as a mismatch here.
//
// The periodic timetable is unrolled one period at a time, every copy of
// every elementary connection in (departure, arrival) order, and scanned
// once: no queue, no travel-time function, no graph. The scan stops after
// the first period that improved nothing while every label (plus its
// station's transfer time) already lay at or before the period's start:
// each later copy of a connection then departs one period after a copy
// that was reachable and useless, so it is useless too.
//
// Semantics note. The scan keeps one "on route" label per (route, stop
// position), next to one label per station, because that is what the
// route model charges:
//  * staying seated, or switching to any other trip of the same route that
//    leaves the stop position at or after the arrival there, is free (the
//    route node's travel function takes the next departure of any of the
//    route's trips);
//  * alighting costs 0;
//  * boarding costs the station's transfer time T(S), except at the
//    source, where the engines skip it.
// A scan with one "reached" flag per trip, like the time-expanded model
// (one node per event, every change of train through a transfer node),
// charges T(S) for a switch between two trips of one route, so it can
// only bound the route model from above: it agrees exactly when no such
// switch is profitable. The per-route label makes the scan exact.
#pragma once

#include <algorithm>
#include <vector>

#include "timetable/timetable.hpp"

namespace pconn::test {

/// One point of a reduced profile: leave the source at `dep` (in
/// [0, period)), arrive at the target at absolute time `arr`.
struct ScanProfilePoint {
  Time dep;
  Time arr;
};

class ConnectionScan {
 public:
  explicit ConnectionScan(const Timetable& tt) : tt_(tt) {
    const Time period = tt.period();
    std::uint32_t slot = 0;
    for (RouteId r = 0; r < tt.num_routes(); ++r) {
      const Route route = tt.route(r);
      for (const TrainId z : route.trips) {
        const Trip trip = tt.trip(z);
        for (std::uint32_t k = 0; k + 1 < route.stops.size(); ++k) {
          const Time dep = trip.departures[k] % period;
          const Time ride = trip.arrivals[k + 1] - trip.departures[k];
          conns_.push_back({dep, dep + ride, route.stops[k],
                            route.stops[k + 1], slot + k});
        }
      }
      slot += static_cast<std::uint32_t>(route.stops.size());
    }
    num_slots_ = slot;
    std::sort(conns_.begin(), conns_.end(),
              [](const Conn& a, const Conn& b) {
                return a.dep != b.dep ? a.dep < b.dep : a.arr < b.arr;
              });
  }

  /// Earliest absolute arrival at every station when leaving `source` at
  /// absolute time `tau` (kInfTime where unreachable; `tau` at the
  /// source). With a `target`, only that station's entry is exact.
  std::vector<Time> earliest_arrivals(
      StationId source, Time tau, StationId target = kInvalidStation) const {
    const Time period = tt_.period();
    std::vector<Time> station(tt_.num_stations(), kInfTime);
    std::vector<Time> on_route(num_slots_, kInfTime);
    station[source] = tau;
    // The latest time from which a label set so far lets a connection be
    // taken (arrival plus transfer time).
    Time latest = tau;
    const Time first = tau / period * period;
    for (Time base = first;; base += period) {
      bool improved = false;
      auto it = conns_.begin();
      if (base == first) {
        it = std::ranges::lower_bound(conns_, tau - base, {}, &Conn::dep);
      }
      for (; it != conns_.end(); ++it) {
        const Conn& c = *it;
        const Time dep = base + c.dep;
        if (target != kInvalidStation && dep >= station[target]) break;
        const Time boarded =
            c.from == source || station[c.from] == kInfTime
                ? station[c.from]
                : station[c.from] + tt_.transfer_time(c.from);
        if (on_route[c.slot] > dep && boarded > dep) continue;
        const Time arr = base + c.arr;
        bool useful = false;
        if (arr < on_route[c.slot + 1]) {
          on_route[c.slot + 1] = arr;
          useful = true;
        }
        if (arr < station[c.to]) {
          station[c.to] = arr;
          useful = true;
        }
        if (useful) {
          improved = true;
          latest = std::max(latest, arr + tt_.transfer_time(c.to));
        }
      }
      // Every later departure is at or after base + period.
      const bool target_done =
          target != kInvalidStation && station[target] <= base + period;
      if (target_done || (!improved && latest <= base)) break;
    }
    return station;
  }

  /// The reduced profile dist(source, target, ·): one forward scan per
  /// distinct departure time of the source, keeping a departure only if
  /// it arrives strictly earlier than the next one (the first departure
  /// of the next period for the last).
  std::vector<ScanProfilePoint> profile(StationId source,
                                        StationId target) const {
    std::vector<Time> deps;
    for (const Conn& c : conns_) {
      if (c.from == source && (deps.empty() || deps.back() != c.dep)) {
        deps.push_back(c.dep);
      }
    }
    std::vector<ScanProfilePoint> all;
    for (const Time d : deps) {
      all.push_back({d, earliest_arrivals(source, d, target)[target]});
    }
    // A later departure can always wait for the next period's copy of an
    // earlier one's journey, so the target is reachable from all of them
    // or from none.
    std::vector<ScanProfilePoint> reduced;
    if (all.empty() || all[0].arr == kInfTime) return reduced;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Time next =
          i + 1 < all.size() ? all[i + 1].arr : all[0].arr + tt_.period();
      if (all[i].arr < next) reduced.push_back(all[i]);
    }
    return reduced;
  }

 private:
  /// An elementary connection of one trip, leaving the route's stop
  /// position `slot` (a global (route, position) index) for `slot + 1`.
  struct Conn {
    Time dep;  // in [0, period)
    Time arr;  // dep + ride time, may exceed the period
    StationId from;
    StationId to;
    std::uint32_t slot;
  };

  const Timetable& tt_;
  std::vector<Conn> conns_;
  std::uint32_t num_slots_ = 0;
};

}  // namespace pconn::test
