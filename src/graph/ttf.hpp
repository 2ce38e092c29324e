// Piecewise-linear periodic travel-time functions (Section 2 of the paper).
//
// A travel-time function f: Pi -> N0 in a public transportation network is
// fully described by its connection points P(f) = {(tau, w)}: depart no
// earlier than tau on the connection leaving at tau and ride for w seconds;
// f(t) = Delta(t, tau) + w for the point minimizing the wait Delta(t, tau).
//
// Construction prunes *dominated* points — points whose connection is never
// the best choice because waiting for a later one (possibly wrapping past
// midnight) arrives no later. After pruning, "take the next departure" is
// optimal and f satisfies the FIFO property f(t1) <= Delta(t1,t2) + f(t2)
// cyclically, which the query algorithms rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "timetable/types.hpp"

namespace pconn {

/// One connection point: departure time in [0, period), ride duration.
struct TtfPoint {
  Time dep;
  Time dur;
  bool operator==(const TtfPoint&) const = default;
};

class Ttf {
 public:
  Ttf() = default;

  /// Builds from arbitrary points: sorts by departure, keeps the fastest
  /// ride per departure time, prunes dominated points (cyclically).
  /// Departures must already lie in [0, period).
  static Ttf build(std::vector<TtfPoint> points, Time period);
  /// build()'s normalization in place: `points` ends up holding exactly
  /// the points build() keeps. `keep` is scratch, so a caller walking
  /// many functions reuses both buffers and allocates nothing once warm.
  static void normalize(std::vector<TtfPoint>& points, Time period,
                        std::vector<std::uint8_t>& keep);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<TtfPoint>& points() const { return points_; }
  Time period() const { return period_; }

  /// Travel time when showing up at absolute time t: waiting for the next
  /// departure (cyclically) plus its ride. kInfTime if the function is empty.
  Time eval(Time t) const;

  /// Absolute arrival when entering the edge at absolute time t.
  Time arrival(Time t) const {
    Time w = eval(t);
    return w == kInfTime ? kInfTime : t + w;
  }

  /// The connection point used when showing up at absolute time t, as an
  /// index into points(). Used for journey unpacking.
  std::size_t point_used(Time t) const;

  /// Smallest ride duration over all points (lower bound for the static
  /// contraction in transfer-station selection). kInfTime if empty.
  Time min_duration() const;

  /// Verifies FIFO cyclically over all pairs of points (test helper).
  bool is_fifo() const;

 private:
  std::vector<TtfPoint> points_;  // sorted by dep, unique deps
  Time period_ = kDayseconds;
};

}  // namespace pconn
