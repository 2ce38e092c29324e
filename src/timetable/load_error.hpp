// Typed load failures shared by every data-file loader — the binary
// PCSN snapshot reader (timetable/snapshot.hpp) and the CSV/GTFS loaders
// (timetable/gtfs.hpp, util/csv.hpp callers).
//
// A server's startup path must never crash (or allocate unboundedly) on a
// bad data file: every loader validates counts and values BEFORE sizing
// storage from them and reports failures through this one exception type,
// so callers can tell "the file is bad" (catch LoadError, refuse to serve)
// from a programming error. It still IS a std::runtime_error, so legacy
// catch sites keep working.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace pconn {

class LoadError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kBadMagic = 0,      // not a PCSN file
    kBadVersion = 1,    // format version this build does not read
    kTruncated = 2,     // stream ended (or failed) mid-section
    kBadCount = 3,      // a section count contradicts loaded sections
    kCorrupt = 4,       // values out of range / inconsistent structure
    kMissingFile = 5,   // a required file cannot be opened
  };

  LoadError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

}  // namespace pconn
