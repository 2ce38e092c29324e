// Mutable construction side of the timetable: collects stations and trips,
// then finalize() validates, partitions trips into routes, and emits the
// immutable Timetable.
//
// Route partitioning follows the paper ("two trains are equivalent if they
// run through the same sequence of stations") refined by a non-overtaking
// split: within a route, trips must be component-wise ordered in time at
// every stop. The refinement is what makes the per-edge travel-time
// functions FIFO, a property Section 2 assumes of all inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "timetable/timetable.hpp"
#include "timetable/types.hpp"

namespace pconn {

class TimetableBuilder {
 public:
  /// Throws std::invalid_argument when the period is 0 or too large for
  /// the signed-lane arithmetic the TTF kernels use (>= 2^30).
  explicit TimetableBuilder(Time period = kDayseconds);

  /// Registers a station; transfer_time is the paper's T(S). Throws
  /// std::invalid_argument when the transfer time is not smaller than the
  /// period.
  StationId add_station(std::string name, Time transfer_time);

  struct StopTime {
    StationId station;
    Time arrival;    // ignored at the first stop
    Time departure;  // ignored at the last stop
  };

  /// Registers one vehicle run. Times are raw seconds, non-decreasing along
  /// the trip; the trip is normalized so its first departure lies in
  /// [0, period). Throws std::invalid_argument on malformed input:
  /// fewer than 2 stops, unknown stations, decreasing times (the unsigned
  /// encoding of a negative travel time), consecutive stops less than
  /// 1 second apart, immediate self-loops, or a normalized span outside
  /// the supported time range.
  ///
  /// Trips of different `group`s never share a route, whatever their
  /// stops: make_reverse_timetable tags each reversed trip with its forward
  /// route so the mirrored routes hold the same trips.
  TrainId add_trip(const std::vector<StopTime>& stops,
                   std::uint32_t group = 0);

  std::size_t num_stations() const { return names_.size(); }
  std::size_t num_trips() const { return raw_trips_.size(); }

  /// Validates globally (every emitted route must be a FIFO trip chain —
  /// throws std::invalid_argument otherwise), computes routes and the
  /// connection index. The builder is left empty afterwards.
  Timetable finalize();

 private:
  struct RawTrip {
    std::uint32_t group;
    std::vector<StationId> stops;
    std::vector<Time> arrivals;
    std::vector<Time> departures;
  };

  Time period_;
  std::vector<std::string> names_;
  std::vector<Time> transfer_times_;
  std::vector<RawTrip> raw_trips_;
};

}  // namespace pconn
