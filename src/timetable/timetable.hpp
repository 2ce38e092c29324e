// Immutable periodic timetable: stations, trains (trips), routes, and the
// elementary-connection index that the query algorithms consume.
//
// Construction goes through TimetableBuilder (builder.hpp), which performs
// route partitioning and validation; a finalized Timetable is read-only.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "timetable/types.hpp"
#include "util/const_array.hpp"

namespace pconn {

class OverlayGraph;

/// One scheduled vehicle run over the stop sequence of its route, viewed
/// in the timetable's CSR arrays (valid while the timetable lives).
/// arrivals[k] / departures[k] belong to the k-th stop of the route; raw
/// values that may exceed the period (overnight runs), non-decreasing
/// along the trip.
struct Trip {
  RouteId route = 0;
  std::span<const Time> arrivals;
  std::span<const Time> departures;
};

/// Maximal set of trips sharing the same station sequence such that no trip
/// overtakes another (the refinement that makes per-edge travel-time
/// functions FIFO, which Section 2 of the paper assumes of all networks).
/// A view like Trip.
struct Route {
  std::span<const StationId> stops;
  std::span<const TrainId> trips;  // ordered by departure at the first stop
};

class Timetable;

/// A random-access range of connections, decoded on read from their stored
/// ConnRefs and the timetable's trip and route rows (Timetable::connection).
/// Elements are values: `for (const Connection& c : view)` binds each one
/// to a temporary. Valid while the timetable lives.
class ConnectionView {
 public:
  class iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Connection;
    using difference_type = std::ptrdiff_t;
    using reference = Connection;

    iterator() = default;
    iterator(const Timetable* tt, const ConnRef* ref) : tt_(tt), ref_(ref) {}

    Connection operator*() const;
    Connection operator[](difference_type n) const { return *(*this + n); }
    iterator& operator++() { ++ref_; return *this; }
    iterator operator++(int) { iterator t = *this; ++ref_; return t; }
    iterator& operator--() { --ref_; return *this; }
    iterator operator--(int) { iterator t = *this; --ref_; return t; }
    iterator& operator+=(difference_type n) { ref_ += n; return *this; }
    iterator& operator-=(difference_type n) { ref_ -= n; return *this; }
    friend iterator operator+(iterator i, difference_type n) { return i += n; }
    friend iterator operator+(difference_type n, iterator i) { return i += n; }
    friend iterator operator-(iterator i, difference_type n) { return i -= n; }
    friend difference_type operator-(iterator a, iterator b) {
      return a.ref_ - b.ref_;
    }
    friend bool operator==(iterator a, iterator b) { return a.ref_ == b.ref_; }
    friend auto operator<=>(iterator a, iterator b) {
      return a.ref_ <=> b.ref_;
    }

   private:
    const Timetable* tt_ = nullptr;
    const ConnRef* ref_ = nullptr;
  };

  ConnectionView() = default;
  ConnectionView(const Timetable* tt, std::span<const ConnRef> refs)
      : tt_(tt), refs_(refs) {}

  std::size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }
  Connection operator[](std::size_t i) const;
  Connection front() const { return (*this)[0]; }
  iterator begin() const { return {tt_, refs_.data()}; }
  iterator end() const { return {tt_, refs_.data() + refs_.size()}; }
  /// The stored references themselves.
  std::span<const ConnRef> refs() const { return refs_; }

 private:
  const Timetable* tt_ = nullptr;
  std::span<const ConnRef> refs_;
};

/// Every array is a ConstArray: filled once by TimetableBuilder, or adopted
/// in place from a mapped snapshot (timetable/snapshot.hpp). Copies share
/// the arrays.
class Timetable {
 public:
  Time period() const { return period_; }

  std::size_t num_stations() const { return transfer_times_.size(); }
  std::size_t num_trips() const { return trip_route_.size(); }
  std::size_t num_routes() const {
    return route_stop_begin_.empty() ? 0 : route_stop_begin_.size() - 1;
  }
  std::size_t num_connections() const { return connections_.size(); }

  std::string_view station_name(StationId s) const {
    return {name_bytes_.data() + name_begin_[s],
            name_begin_[s + 1] - name_begin_[s]};
  }
  /// Minimum transfer time T(S) required to change trains at s.
  Time transfer_time(StationId s) const { return transfer_times_[s]; }

  Trip trip(TrainId t) const {
    const std::uint32_t lo = trip_begin_[t], hi = trip_begin_[t + 1];
    return {trip_route_[t], arrivals_.slice(lo, hi),
            departures_.slice(lo, hi)};
  }
  Route route(RouteId r) const {
    return {
        route_stops_.slice(route_stop_begin_[r], route_stop_begin_[r + 1]),
        route_trips_.slice(route_trip_begin_[r], route_trip_begin_[r + 1])};
  }

  /// All elementary connections, sorted by (departure station, departure
  /// time, arrival time, train).
  ConnectionView connections() const { return {this, connections_.span()}; }

  /// conn(S): outgoing connections of `s`, non-decreasing in departure time.
  ConnectionView outgoing(StationId s) const {
    return {this, connections_.slice(conn_begin_[s], conn_begin_[s + 1])};
  }

  /// The connection `r` refers to: its departure is the trip's departure
  /// at stop r.pos reduced into the period, its duration the trip's ride
  /// from there to the next stop, its endpoints the route's stops.
  Connection connection(ConnRef r) const {
    const std::uint32_t row = trip_begin_[r.train] + r.pos;
    const std::uint32_t stop = route_stop_begin_[trip_route_[r.train]] + r.pos;
    const Time dep = departures_[row] % period_;
    return {r.train,
            route_stops_[stop],
            route_stops_[stop + 1],
            dep,
            dep + (arrivals_[row + 1] - departures_[row]),
            r.pos};
  }

  /// Offset of outgoing(s) within connections().
  std::uint32_t outgoing_offset(StationId s) const { return conn_begin_[s]; }

  /// Average |conn(S)| over all stations — the statistic the paper uses to
  /// explain scalability differences between bus and railway networks.
  double avg_outgoing_connections() const {
    return num_stations() == 0
               ? 0.0
               : static_cast<double>(num_connections()) / num_stations();
  }

  /// Every array's bytes (tests check where adopted arrays live).
  std::vector<std::span<const std::byte>> array_bytes() const {
    return {name_begin_.bytes(),       name_bytes_.bytes(),
            transfer_times_.bytes(),   route_stop_begin_.bytes(),
            route_stops_.bytes(),      route_trip_begin_.bytes(),
            route_trips_.bytes(),      trip_route_.bytes(),
            trip_begin_.bytes(),       arrivals_.bytes(),
            departures_.bytes(),       connections_.bytes(),
            conn_begin_.bytes()};
  }

 private:
  friend class TimetableBuilder;
  // The snapshot loader adopts validated file sections as the arrays, and
  // the writer stores them verbatim (timetable/snapshot.hpp).
  friend class MappedSnapshot;
  friend void save_snapshot(const Timetable&, const OverlayGraph*,
                            const std::string&);

  Time period_ = kDayseconds;
  ConstArray<std::uint32_t> name_begin_;  // num_stations() + 1
  ConstArray<char> name_bytes_;
  ConstArray<Time> transfer_times_;
  ConstArray<std::uint32_t> route_stop_begin_;  // num_routes() + 1
  ConstArray<StationId> route_stops_;
  ConstArray<std::uint32_t> route_trip_begin_;  // num_routes() + 1
  ConstArray<TrainId> route_trips_;
  ConstArray<RouteId> trip_route_;
  ConstArray<std::uint32_t> trip_begin_;  // num_trips() + 1
  ConstArray<Time> arrivals_;
  ConstArray<Time> departures_;
  ConstArray<ConnRef> connections_;  // sorted as connections()
  ConstArray<std::uint32_t> conn_begin_;  // num_stations() + 1
};

inline Connection ConnectionView::iterator::operator*() const {
  return tt_->connection(*ref_);
}

inline Connection ConnectionView::operator[](std::size_t i) const {
  return tt_->connection(refs_[i]);
}

}  // namespace pconn
