// Travel-time profiles dist(S, T, ·) and the paper's connection reduction.
//
// A profile is the result side of a profile query: a sequence of
// (departure at S, arrival at T) pairs, one per *useful* outgoing
// connection, sorted by departure. Departures lie in [0, period); arrivals
// are absolute (>= dep, may exceed the period).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "timetable/types.hpp"

namespace pconn {

struct ProfilePoint {
  Time dep;  // departure at the source, in [0, period)
  Time arr;  // absolute arrival at the target for that departure
  bool operator==(const ProfilePoint&) const = default;
};

using Profile = std::vector<ProfilePoint>;

/// Merge order of the label-correcting baseline (algo/lc_profile.cpp): the
/// lexicographic (departure, arrival) order its std::merge unions use.
inline bool profile_point_less(const ProfilePoint& x, const ProfilePoint& y) {
  return x.dep != y.dep ? x.dep < y.dep : x.arr < y.arr;
}

/// The paper's connection reduction (Section 3.1): scan backward keeping
/// the minimum arrival; drop every point whose arrival is not strictly
/// earlier than the best later-departing alternative. Points with
/// arr == kInfTime (pruned connections) are dropped up front. A final
/// cyclic pass removes tail points dominated by next-day departures, so the
/// result is FIFO as a periodic function. Input must be sorted by dep.
Profile reduce_profile(const Profile& raw, Time period);

/// Allocation-free variant for warm query paths: writes the reduced profile
/// into `out`, reusing its capacity. `&raw != &out`. Templated over the
/// vector types so arena-backed profile buffers (the LC baseline's pooled
/// merge scratch) reduce through the same code path as plain Profiles.
template <typename VecIn, typename VecOut>
void reduce_profile_into(const VecIn& raw, Time period, VecOut& out) {
  assert(static_cast<const void*>(&raw) != static_cast<const void*>(&out));
  out.clear();
  out.reserve(raw.size());
  // Backward scan: keep a point only if it arrives strictly earlier than
  // every kept point departing later the same day.
  Time min_arr = kInfTime;
  for (std::size_t i = raw.size(); i-- > 0;) {
    const ProfilePoint& p = raw[i];
    if (p.arr == kInfTime) continue;
    assert(p.dep < period && p.arr >= p.dep);
    assert(i == 0 || raw[i - 1].dep <= p.dep);  // input sorted by departure
    if (p.arr < min_arr) {
      out.push_back(p);
      min_arr = p.arr;
    }
  }
  std::reverse(out.begin(), out.end());
  // Equal departures can survive the scan (arrivals are strictly increasing
  // afterwards, so the first of an equal-departure run is the best): dedup.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const ProfilePoint& a, const ProfilePoint& b) {
                          return a.dep == b.dep;
                        }),
            out.end());

  // Cyclic pass: a late-evening point may still be dominated by an
  // early-morning departure of the next period. After the linear scan,
  // arrivals increase with departures, so the earliest arrival is
  // out.front().arr and only tail points can be dominated by it + period.
  if (out.size() > 1) {
    const Time wrap_min = out.front().arr + period;
    while (out.size() > 1 && out.back().arr >= wrap_min) out.pop_back();
  }
}

/// Earliest absolute arrival when departing the source at absolute time t.
/// The profile must be reduced (FIFO); returns kInfTime for empty profiles.
Time eval_profile(const Profile& profile, Time t, Time period);

/// Index of the profile point eval_profile would use (kNoConn if empty).
std::uint32_t profile_point_used(const Profile& profile, Time t, Time period);

/// FIFO check over a reduced profile (test helper): departing later never
/// yields a strictly earlier arrival, cyclically.
bool profile_is_fifo(const Profile& profile, Time period);

}  // namespace pconn
