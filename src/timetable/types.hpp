// Fundamental identifiers and time arithmetic for periodic timetables.
//
// Follows Section 2 of Delling/Katz/Pajor: a periodic timetable is
// (C, S, Z, Pi, T) with Pi = {0, ..., pi-1} discrete time points. Durations
// and arrival times may exceed pi (a train arriving after midnight), so
// Time is an absolute count of seconds that wraps only through delta().
#pragma once

#include <cstdint>
#include <limits>

namespace pconn {

using StationId = std::uint32_t;
using TrainId = std::uint32_t;    // "trip" in GTFS parlance
using RouteId = std::uint32_t;
using NodeId = std::uint32_t;     // node of the time-dependent graph
using ConnIndex = std::uint32_t;  // index into conn(S) for a fixed S

using Time = std::uint32_t;  // seconds

constexpr Time kInfTime = std::numeric_limits<Time>::max();
constexpr StationId kInvalidStation = std::numeric_limits<StationId>::max();
constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
constexpr std::uint32_t kNoConn = std::numeric_limits<std::uint32_t>::max();

/// Default periodicity: one day in seconds.
constexpr Time kDayseconds = 86400;

/// Length Delta(tau1, tau2) of the paper: time from tau1 to tau2 respecting
/// the period. Both arguments are first reduced into Pi. Not symmetric.
inline Time delta(Time tau1, Time tau2, Time period) {
  tau1 %= period;
  tau2 %= period;
  return tau2 >= tau1 ? tau2 - tau1 : period + tau2 - tau1;
}

/// An elementary connection c = (Z, S_dep, S_arr, tau_dep, tau_arr):
/// train `train` leaves `from` at `dep` and reaches `to` at `arr`.
/// `dep` is reduced into [0, period); `arr` >= `dep` may exceed the period.
/// `pos` is the index of `from` within the trip's stop sequence — it
/// disambiguates loop routes that visit a station twice and maps the
/// connection to its departure route node in the time-dependent graph.
///
/// A decoded value, not the stored record: the timetable stores a ConnRef
/// per connection and derives the other four fields from its trip and
/// route rows on read (Timetable::connections()).
struct Connection {
  TrainId train;
  StationId from;
  StationId to;
  Time dep;
  Time arr;
  std::uint32_t pos;

  Time duration() const { return arr - dep; }
  bool operator==(const Connection&) const = default;
};

/// The stored form of an elementary connection: its trip and the index of
/// its departure stop within the trip's stop sequence (PCSN's connection
/// section holds exactly these, two u32 words each).
struct ConnRef {
  TrainId train;
  std::uint32_t pos;
};

}  // namespace pconn
