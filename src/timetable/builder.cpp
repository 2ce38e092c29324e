#include "timetable/builder.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

namespace pconn {

TimetableBuilder::TimetableBuilder(Time period) : period_(period) {
  if (period == 0) throw std::invalid_argument("timetable: period must be > 0");
  // The TTF kernels compare times in signed 32-bit lanes and the pool
  // precomputes a reciprocal of the period; keep both well away from the
  // sign bit (mirrors the snapshot loader's meta check).
  if (period >= (Time{1} << 30)) {
    throw std::invalid_argument("timetable: period " + std::to_string(period) +
                                " exceeds the supported range (< 2^30)");
  }
}

StationId TimetableBuilder::add_station(std::string name, Time transfer_time) {
  // A transfer longer than the period would make boarding unreachable
  // within any cycle (and overflow the overlay's board-shift encoding).
  if (transfer_time >= period_) {
    throw std::invalid_argument(
        "station: transfer time " + std::to_string(transfer_time) +
        " must be smaller than the period " + std::to_string(period_));
  }
  names_.push_back(std::move(name));
  transfer_times_.push_back(transfer_time);
  return static_cast<StationId>(names_.size() - 1);
}

TrainId TimetableBuilder::add_trip(const std::vector<StopTime>& stops) {
  if (stops.size() < 2) {
    throw std::invalid_argument("trip: needs at least 2 stops");
  }
  RawTrip t;
  t.stops.reserve(stops.size());
  t.arrivals.reserve(stops.size());
  t.departures.reserve(stops.size());
  for (std::size_t k = 0; k < stops.size(); ++k) {
    const StopTime& st = stops[k];
    if (st.station >= names_.size()) {
      throw std::invalid_argument("trip: unknown station id");
    }
    if (k > 0 && st.station == stops[k - 1].station) {
      throw std::invalid_argument("trip: immediate self-loop");
    }
    Time arr = (k == 0) ? st.departure : st.arrival;
    Time dep = (k + 1 == stops.size()) ? arr : st.departure;
    if (dep < arr) {
      throw std::invalid_argument("trip: departure before arrival at a stop");
    }
    if (k > 0) {
      if (arr < t.departures.back() + 1) {
        throw std::invalid_argument(
            "trip: consecutive stops must be at least 1 second apart");
      }
    }
    t.stops.push_back(st.station);
    t.arrivals.push_back(arr);
    t.departures.push_back(dep);
  }
  // Normalize: first departure into [0, period).
  Time shift = (t.departures[0] / period_) * period_;
  if (shift > 0) {
    for (auto& v : t.arrivals) v -= shift;
    for (auto& v : t.departures) v -= shift;
  }
  // After normalization every time is bounded by the trip's span; keep the
  // whole trip inside the signed-lane-safe range the kernels assume.
  if (t.arrivals.back() >= (Time{1} << 30)) {
    throw std::invalid_argument(
        "trip: spans " + std::to_string(t.arrivals.back()) +
        " seconds from its first departure, exceeding the supported range");
  }
  raw_trips_.push_back(std::move(t));
  return static_cast<TrainId>(raw_trips_.size() - 1);
}

namespace {

/// true iff trip a is component-wise no later than trip b at every stop.
bool no_later(const std::vector<Time>& a_arr, const std::vector<Time>& a_dep,
              const std::vector<Time>& b_arr, const std::vector<Time>& b_dep) {
  for (std::size_t k = 0; k < a_arr.size(); ++k) {
    if (a_arr[k] > b_arr[k] || a_dep[k] > b_dep[k]) return false;
  }
  return true;
}

}  // namespace

Timetable TimetableBuilder::finalize() {
  Timetable tt;
  tt.period_ = period_;
  std::vector<std::uint32_t> name_begin{0};
  std::vector<char> name_bytes;
  for (const std::string& name : names_) {
    name_bytes.insert(name_bytes.end(), name.begin(), name.end());
    name_begin.push_back(static_cast<std::uint32_t>(name_bytes.size()));
  }
  const std::size_t num_stations = names_.size();

  // 1. Group trips by station sequence.
  std::map<std::vector<StationId>, std::vector<TrainId>> by_sequence;
  for (std::size_t i = 0; i < raw_trips_.size(); ++i) {
    by_sequence[raw_trips_[i].stops].push_back(static_cast<TrainId>(i));
  }

  // 2. Within each group, sort by first departure and split greedily into
  //    non-overtaking chains. Each chain's last trip is its component-wise
  //    maximum, so the check against the last trip suffices.
  std::vector<std::uint32_t> route_stop_begin{0}, route_trip_begin{0};
  std::vector<StationId> route_stops;
  std::vector<TrainId> route_trips;
  std::vector<RouteId> trip_route(raw_trips_.size());
  for (auto& [stops, members] : by_sequence) {
    std::stable_sort(members.begin(), members.end(), [&](TrainId a, TrainId b) {
      return raw_trips_[a].departures[0] < raw_trips_[b].departures[0];
    });
    std::vector<std::vector<TrainId>> chains;
    for (TrainId id : members) {
      const RawTrip& rt = raw_trips_[id];
      bool placed = false;
      for (auto& chain : chains) {
        const RawTrip& last = raw_trips_[chain.back()];
        if (no_later(last.arrivals, last.departures, rt.arrivals,
                     rt.departures)) {
          chain.push_back(id);
          placed = true;
          break;
        }
      }
      if (!placed) chains.push_back({id});
    }
    for (auto& chain : chains) {
      // The greedy split above must leave every chain FIFO (trip i never
      // overtakes trip i+1 at any stop) — the property the route-based
      // engines' "scan trips in order" loops rely on. Verify it here with
      // a descriptive error rather than trusting the split: finalize() is
      // the last gate before queries run on this data.
      for (std::size_t i = 1; i < chain.size(); ++i) {
        const RawTrip& prev = raw_trips_[chain[i - 1]];
        const RawTrip& next = raw_trips_[chain[i]];
        if (!no_later(prev.arrivals, prev.departures, next.arrivals,
                      next.departures)) {
          throw std::invalid_argument(
              "timetable: non-FIFO trip pair survived route partitioning");
        }
      }
      const RouteId rid = static_cast<RouteId>(route_stop_begin.size() - 1);
      route_stops.insert(route_stops.end(), stops.begin(), stops.end());
      route_trips.insert(route_trips.end(), chain.begin(), chain.end());
      route_stop_begin.push_back(
          static_cast<std::uint32_t>(route_stops.size()));
      route_trip_begin.push_back(
          static_cast<std::uint32_t>(route_trips.size()));
      for (TrainId id : chain) trip_route[id] = rid;
    }
  }

  // 3. Trip rows in trip-id order, and the elementary connections sorted
  //    by (from, dep, arr) with the conn(S) index.
  std::vector<std::uint32_t> trip_begin{0};
  std::vector<Time> arrivals, departures;
  std::vector<Connection> connections;
  connections.reserve(raw_trips_.empty() ? 0 : raw_trips_.size() * 4);
  for (std::size_t id = 0; id < raw_trips_.size(); ++id) {
    const RawTrip& trip = raw_trips_[id];
    arrivals.insert(arrivals.end(), trip.arrivals.begin(), trip.arrivals.end());
    departures.insert(departures.end(), trip.departures.begin(),
                      trip.departures.end());
    trip_begin.push_back(static_cast<std::uint32_t>(arrivals.size()));
    for (std::size_t k = 0; k + 1 < trip.stops.size(); ++k) {
      Connection c;
      c.train = static_cast<TrainId>(id);
      c.from = trip.stops[k];
      c.to = trip.stops[k + 1];
      Time raw_dep = trip.departures[k];
      Time duration = trip.arrivals[k + 1] - raw_dep;
      c.dep = raw_dep % period_;
      c.arr = c.dep + duration;
      c.pos = static_cast<std::uint32_t>(k);
      connections.push_back(c);
    }
  }
  std::sort(connections.begin(), connections.end(),
            [](const Connection& a, const Connection& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.dep != b.dep) return a.dep < b.dep;
              if (a.arr != b.arr) return a.arr < b.arr;
              return a.train < b.train;
            });
  std::vector<std::uint32_t> conn_begin(num_stations + 1, 0);
  for (const Connection& c : connections) conn_begin[c.from + 1]++;
  std::partial_sum(conn_begin.begin(), conn_begin.end(), conn_begin.begin());

  tt.name_begin_ = ConstArray(std::move(name_begin));
  tt.name_bytes_ = ConstArray(std::move(name_bytes));
  tt.transfer_times_ = ConstArray(std::move(transfer_times_));
  tt.route_stop_begin_ = ConstArray(std::move(route_stop_begin));
  tt.route_stops_ = ConstArray(std::move(route_stops));
  tt.route_trip_begin_ = ConstArray(std::move(route_trip_begin));
  tt.route_trips_ = ConstArray(std::move(route_trips));
  tt.trip_route_ = ConstArray(std::move(trip_route));
  tt.trip_begin_ = ConstArray(std::move(trip_begin));
  tt.arrivals_ = ConstArray(std::move(arrivals));
  tt.departures_ = ConstArray(std::move(departures));
  tt.connections_ = ConstArray(std::move(connections));
  tt.conn_begin_ = ConstArray(std::move(conn_begin));
  names_.clear();
  transfer_times_.clear();
  raw_trips_.clear();
  return tt;
}

}  // namespace pconn
