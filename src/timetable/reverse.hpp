// Time-reversed timetable: every trip runs its stop sequence backwards on
// a mirrored clock (tau -> -tau mod period). An earliest-arrival profile
// search on the reversed timetable computes *latest-departure* answers on
// the original one, which is how all-to-one profile queries (dist(·, T, ·)
// for every source in a single run) are implemented on top of SPCS.
//
// Transfer times are station properties and survive reversal unchanged —
// a T(S)-second gap between arrival and departure mirrors to the same gap.
#pragma once

#include "timetable/timetable.hpp"

namespace pconn {

/// Builds the time-reversed timetable. Involution up to trip/route
/// renumbering: reversing twice yields the original connection multiset.
/// Reversed trip z is forward trip z, and each reversed route holds
/// exactly one forward route's trips; throws std::logic_error if the
/// TimetableBuilder's non-overtaking split would break a route apart.
Timetable make_reverse_timetable(const Timetable& tt);

}  // namespace pconn
