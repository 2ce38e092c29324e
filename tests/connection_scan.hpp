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
//
// pareto_fronts() runs the same scan in rounds, one per boarding (the
// round structure of RAPTOR, Delling, Pajor, Werneck, "Round-Based Public
// Transit Routing", ALENEX 2012): round k boards only from round k-1's
// station labels, so it yields the earliest arrivals with at most k
// boardings, and the Pareto front over (arrival, boardings) follows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "timetable/timetable.hpp"

namespace pconn::test {

/// One point of a reduced profile: leave the source at `dep` (in
/// [0, period)), arrive at the target at absolute time `arr`.
struct ScanProfilePoint {
  Time dep;
  Time arr;
};

/// One label of a Pareto front: arrive at `arr` after `boards` boardings.
struct ScanLabel {
  Time arr;
  std::uint32_t boards;
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
    std::vector<Time> station(tt_.num_stations(), kInfTime);
    station[source] = tau;
    scan(source, tau, station, station, target);
    return station;
  }

  /// The reduced profile dist(source, target, ·): one forward scan per
  /// distinct departure time of the source, keeping a departure only if
  /// it arrives strictly earlier than the next one (the first departure
  /// of the next period for the last).
  std::vector<ScanProfilePoint> profile(StationId source,
                                        StationId target) const {
    std::vector<ScanProfilePoint> all;
    for (const Time d : departures(source)) {
      all.push_back({d, earliest_arrivals(source, d, target)[target]});
    }
    return reduce(all);
  }

  /// The reduced profile dist(source, v, ·) at every station v, reduced
  /// like profile() from one full scan per departure time of the source.
  /// Leaving at deps[i], a passenger can wait at the source (boarding there
  /// is free) for deps[i + 1]'s journeys, or for deps[0]'s a period later,
  /// so those arrivals bound deps[i]'s: a connection departing after the
  /// latest of them is on no earliest journey. The scans run deps[0] first,
  /// then from the last departure down, each within the bound the scan
  /// before it left. The source's own entry is meaningless.
  std::vector<std::vector<ScanProfilePoint>> one_to_all_profiles(
      StationId source) const {
    const std::vector<Time> deps = departures(source);
    const std::size_t n = deps.size();
    std::vector<std::vector<ScanProfilePoint>> all(
        tt_.num_stations(), std::vector<ScanProfilePoint>(n));
    std::vector<Time> bound;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = k == 0 ? 0 : n - k;
      Time horizon = kInfTime;
      if (k > 0) {
        horizon = 0;
        for (const Time a : bound) {
          if (a != kInfTime) horizon = std::max(horizon, a);
        }
        if (k == 1) horizon += tt_.period();  // deps[0]'s, a period later
      }
      std::vector<Time> arr(tt_.num_stations(), kInfTime);
      arr[source] = deps[i];
      scan(source, deps[i], arr, arr, kInvalidStation, horizon);
      for (StationId v = 0; v < arr.size(); ++v) all[v][i] = {deps[i], arr[v]};
      bound = std::move(arr);
    }
    for (std::vector<ScanProfilePoint>& p : all) p = reduce(p);
    return all;
  }

  /// Pareto fronts over (arrival, boardings) at every station when leaving
  /// `source` at absolute time `tau` with at most `max_boards` boardings,
  /// each ordered like McTimeQuery::pareto: arrival strictly increasing,
  /// boardings strictly decreasing. Every boarding counts one and costs
  /// the station's transfer time, except at the source, where it is free
  /// but still counts; alighting and switching between trips of one route
  /// are free and count nothing. A station's front keeps each round k
  /// whose arrival strictly improves on round k-1's.
  std::vector<std::vector<ScanLabel>> pareto_fronts(
      StationId source, Time tau, std::uint32_t max_boards) const {
    std::vector<Time> prev(tt_.num_stations(), kInfTime);
    prev[source] = tau;
    std::vector<std::vector<ScanLabel>> fronts(tt_.num_stations());
    fronts[source].push_back({tau, 0});
    for (std::uint32_t k = 1; k <= max_boards; ++k) {
      std::vector<Time> cur = prev;
      scan(source, tau, prev, cur);
      bool improved = false;
      for (StationId s = 0; s < cur.size(); ++s) {
        if (cur[s] < prev[s]) {
          fronts[s].push_back({cur[s], k});
          improved = true;
        }
      }
      if (!improved) break;  // every later round repeats this one
      prev = std::move(cur);
    }
    for (std::vector<ScanLabel>& f : fronts) std::reverse(f.begin(), f.end());
    return fronts;
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

  /// The distinct departure times of `source`'s connections, ascending.
  std::vector<Time> departures(StationId source) const {
    std::vector<Time> deps;
    for (const Conn& c : conns_) {
      if (c.from == source && (deps.empty() || deps.back() != c.dep)) {
        deps.push_back(c.dep);
      }
    }
    return deps;
  }

  /// Keeps the departures of `all` (one per departure time, ascending)
  /// that arrive strictly earlier than the next one, the last compared
  /// with the first one's journey a period later.
  std::vector<ScanProfilePoint> reduce(
      const std::vector<ScanProfilePoint>& all) const {
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

  /// The earliest departure a station label `t` at `s` lets a passenger
  /// board: `t` plus the transfer time, without it at the source.
  Time boarding_time(StationId source, StationId s, Time t) const {
    return s == source || t == kInfTime ? t : t + tt_.transfer_time(s);
  }

  /// The scan behind both queries: lowers `station` to the earliest
  /// arrivals of journeys from `source` at `tau` that board only from
  /// `board_from`'s labels. Passed `station` itself, boarding reads the
  /// labels as they improve, so journeys board any number of times
  /// (earliest_arrivals); passed round k-1's labels, they board once more
  /// than those (pareto_fronts). With a `target`, only that station's
  /// entry is exact. Connections departing after `horizon` are not
  /// scanned: a caller passes one when it knows every label ends at or
  /// before it (every connection of a journey departs before it arrives).
  void scan(StationId source, Time tau, const std::vector<Time>& board_from,
            std::vector<Time>& station, StationId target = kInvalidStation,
            Time horizon = kInfTime) const {
    const Time period = tt_.period();
    std::vector<Time> on_route(num_slots_, kInfTime);
    // The latest time from which a label set so far lets a connection be
    // taken (a boarding time, or an arrival plus transfer time).
    Time latest = tau;
    for (StationId s = 0; s < board_from.size(); ++s) {
      if (board_from[s] != kInfTime) {
        latest = std::max(latest, boarding_time(source, s, board_from[s]));
      }
    }
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
        if (dep > horizon) break;
        const Time boarded = boarding_time(source, c.from, board_from[c.from]);
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
      if (target_done || horizon < base + period ||
          (!improved && latest <= base)) {
        break;
      }
    }
  }

  const Timetable& tt_;
  std::vector<Conn> conns_;
  std::uint32_t num_slots_ = 0;
};

}  // namespace pconn::test
