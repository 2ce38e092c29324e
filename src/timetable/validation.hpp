// Structural sanity checks on a finalized timetable. Used by tests and by
// the generator presets; returns a list of human-readable problems instead
// of throwing so callers can assert emptiness with useful output.
#pragma once

#include <string>
#include <vector>

#include "timetable/timetable.hpp"

namespace pconn {

struct ValidationReport {
  std::vector<std::string> problems;
  bool ok() const { return problems.empty(); }
};

/// Checks:
///  * route stop sequences match their trips' time vectors;
///  * trips within a route are component-wise ordered (non-overtaking);
///  * every elementary connection references a departure stop of its trip
///    at the station it is filed under, and decodes to duration >= 1;
///  * conn(S) ranges are sorted by departure time;
///  * connection count equals sum over trips of (stops - 1).
ValidationReport validate(const Timetable& tt);

}  // namespace pconn
