#include "timetable/gtfs.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "timetable/builder.hpp"
#include "util/csv.hpp"

namespace pconn::gtfs {

Time parse_time(const std::string& text) {
  unsigned h = 0, m = 0, s = 0;
  // kMaxHours keeps h*3600 far from Time overflow even after the builder
  // adds period-relative offsets (a week of after-midnight hours is plenty).
  constexpr unsigned kMaxHours = 24 * 7;
  if (std::sscanf(text.c_str(), "%u:%u:%u", &h, &m, &s) != 3 || m >= 60 ||
      s >= 60 || h > kMaxHours) {
    throw LoadError(LoadError::Kind::kCorrupt,
                    "gtfs: malformed time '" + text + "'");
  }
  return h * 3600 + m * 60 + s;
}

std::string render_time(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02u:%02u:%02u", t / 3600, (t / 60) % 60,
                t % 60);
  return buf;
}

namespace {

/// Caps on the entity counts a feed may declare, checked BEFORE the
/// corresponding storage is sized. Far above any real network (Europe-scale
/// is ~50K stations / ~10M stop events) yet small enough that a lying file
/// cannot drive a multi-GB resize.
constexpr std::size_t kMaxStops = std::size_t{1} << 24;
constexpr std::size_t kMaxTrips = std::size_t{1} << 24;

CsvTable read_table(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) {
    throw LoadError(LoadError::Kind::kMissingFile,
                    "gtfs: cannot open " + file.string());
  }
  try {
    return CsvTable::parse(in);
  } catch (const std::runtime_error& e) {
    // The CSV layer's structural failures (ragged rows, oversized fields,
    // row-count caps) become typed load errors with the file named.
    throw LoadError(LoadError::Kind::kCorrupt,
                    file.filename().string() + ": " + e.what());
  }
}

/// Bounded unsigned parse: rejects empty, non-numeric, negative and
/// > `max` values with a typed error instead of std::stoul's unbounded
/// std::invalid_argument / std::out_of_range (or silent wraparound).
std::uint64_t parse_uint_field(const std::string& text, std::uint64_t max,
                               const char* what) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      v > max) {
    throw LoadError(LoadError::Kind::kCorrupt,
                    std::string("gtfs: bad ") + what + " '" + text + "'");
  }
  return v;
}

}  // namespace

Timetable load(const std::filesystem::path& dir, const LoadOptions& opt) {
  TimetableBuilder builder(opt.period);

  // stops.txt -> stations. Transfer times patched from transfers.txt below,
  // so collect ids first.
  CsvTable stops = read_table(dir / "stops.txt");
  std::map<std::string, StationId> stop_ids;
  std::vector<std::string> stop_names;
  if (stops.num_rows() > kMaxStops) {
    throw LoadError(LoadError::Kind::kBadCount,
                    "gtfs: stops.txt declares " +
                        std::to_string(stops.num_rows()) + " stops (cap " +
                        std::to_string(kMaxStops) + ")");
  }
  for (std::size_t r = 0; r < stops.num_rows(); ++r) {
    const std::string& id = stops.cell(r, "stop_id");
    if (stop_ids.count(id)) {
      throw LoadError(LoadError::Kind::kCorrupt,
                      "gtfs: duplicate stop_id " + id);
    }
    stop_ids[id] = static_cast<StationId>(stop_names.size());
    stop_names.push_back(stops.cell_or(r, "stop_name", id));
  }

  std::vector<Time> transfer(stop_names.size(), opt.default_transfer_time);
  if (std::filesystem::exists(dir / "transfers.txt")) {
    CsvTable tr = read_table(dir / "transfers.txt");
    for (std::size_t r = 0; r < tr.num_rows(); ++r) {
      const std::string& from = tr.cell(r, "from_stop_id");
      const std::string& to = tr.cell_or(r, "to_stop_id", from);
      if (from != to) continue;  // pairwise transfers are out of scope
      auto it = stop_ids.find(from);
      if (it == stop_ids.end()) continue;
      std::string mtt = tr.cell_or(r, "min_transfer_time", "");
      if (!mtt.empty()) {
        transfer[it->second] = static_cast<Time>(
            parse_uint_field(mtt, kDayseconds, "min_transfer_time"));
      }
    }
  }

  for (std::size_t i = 0; i < stop_names.size(); ++i) {
    builder.add_station(stop_names[i], transfer[i]);
  }

  // calendar.txt: which service ids run on the requested weekday.
  std::map<std::string, bool> service_active;
  if (opt.weekday >= 0 && std::filesystem::exists(dir / "calendar.txt")) {
    static const char* kDays[7] = {"monday",   "tuesday", "wednesday",
                                   "thursday", "friday",  "saturday",
                                   "sunday"};
    CsvTable cal = read_table(dir / "calendar.txt");
    for (std::size_t r = 0; r < cal.num_rows(); ++r) {
      service_active[cal.cell(r, "service_id")] =
          cal.cell_or(r, kDays[opt.weekday % 7], "0") == "1";
    }
  }

  // trips.txt gives the set of trip ids; stop_times.txt their schedules.
  CsvTable trips = read_table(dir / "trips.txt");
  if (trips.num_rows() > kMaxTrips) {
    throw LoadError(LoadError::Kind::kBadCount,
                    "gtfs: trips.txt declares " +
                        std::to_string(trips.num_rows()) + " trips (cap " +
                        std::to_string(kMaxTrips) + ")");
  }
  std::map<std::string, std::size_t> trip_index;
  std::set<std::string> skipped_trips;
  for (std::size_t r = 0; r < trips.num_rows(); ++r) {
    const std::string& id = trips.cell(r, "trip_id");
    if (trip_index.count(id)) {
      throw LoadError(LoadError::Kind::kCorrupt,
                      "gtfs: duplicate trip_id " + id);
    }
    if (opt.weekday >= 0) {
      auto it = service_active.find(trips.cell_or(r, "service_id", ""));
      if (it != service_active.end() && !it->second) {
        skipped_trips.insert(id);  // not running on the requested day
        continue;
      }
    }
    trip_index[id] = trip_index.size();
  }

  struct Stop {
    long seq;
    TimetableBuilder::StopTime st;
  };
  std::vector<std::vector<Stop>> schedules(trip_index.size());
  CsvTable stop_times = read_table(dir / "stop_times.txt");
  for (std::size_t r = 0; r < stop_times.num_rows(); ++r) {
    const std::string& trip_id = stop_times.cell(r, "trip_id");
    auto ti = trip_index.find(trip_id);
    if (ti == trip_index.end()) {
      if (skipped_trips.count(trip_id)) continue;  // filtered by calendar
      throw LoadError(LoadError::Kind::kCorrupt,
                      "gtfs: stop_times references unknown trip " + trip_id);
    }
    auto si = stop_ids.find(stop_times.cell(r, "stop_id"));
    if (si == stop_ids.end()) {
      throw LoadError(LoadError::Kind::kCorrupt,
                      "gtfs: stop_times references unknown stop");
    }
    Stop s;
    s.seq = static_cast<long>(parse_uint_field(
        stop_times.cell(r, "stop_sequence"), 1u << 20, "stop_sequence"));
    s.st.station = si->second;
    s.st.arrival = parse_time(stop_times.cell(r, "arrival_time"));
    s.st.departure = parse_time(stop_times.cell(r, "departure_time"));
    schedules[ti->second].push_back(s);
  }

  for (auto& sched : schedules) {
    if (sched.size() < 2) continue;  // degenerate trips are skipped
    std::stable_sort(sched.begin(), sched.end(),
                     [](const Stop& a, const Stop& b) { return a.seq < b.seq; });
    std::vector<TimetableBuilder::StopTime> stops_vec;
    stops_vec.reserve(sched.size());
    for (const Stop& s : sched) stops_vec.push_back(s.st);
    builder.add_trip(stops_vec);
  }

  return builder.finalize();
}

void write(const Timetable& tt, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);

  {
    std::ofstream out(dir / "stops.txt");
    write_csv_record(out, {"stop_id", "stop_name"});
    for (StationId s = 0; s < tt.num_stations(); ++s) {
      write_csv_record(
          out, {"S" + std::to_string(s), std::string(tt.station_name(s))});
    }
  }
  {
    std::ofstream out(dir / "transfers.txt");
    write_csv_record(out, {"from_stop_id", "to_stop_id", "transfer_type",
                           "min_transfer_time"});
    for (StationId s = 0; s < tt.num_stations(); ++s) {
      std::string id = "S" + std::to_string(s);
      write_csv_record(out, {id, id, "2", std::to_string(tt.transfer_time(s))});
    }
  }
  {
    std::ofstream out(dir / "routes.txt");
    write_csv_record(out, {"route_id", "route_short_name", "route_type"});
    for (RouteId r = 0; r < tt.num_routes(); ++r) {
      write_csv_record(out, {"R" + std::to_string(r), "R" + std::to_string(r),
                             "3"});
    }
  }
  {
    std::ofstream trips_out(dir / "trips.txt");
    std::ofstream st_out(dir / "stop_times.txt");
    write_csv_record(trips_out, {"route_id", "service_id", "trip_id"});
    write_csv_record(st_out, {"trip_id", "arrival_time", "departure_time",
                              "stop_id", "stop_sequence"});
    for (TrainId t = 0; t < tt.num_trips(); ++t) {
      const Trip& trip = tt.trip(t);
      const Route& route = tt.route(trip.route);
      std::string trip_id = "T" + std::to_string(t);
      write_csv_record(trips_out,
                       {"R" + std::to_string(trip.route), "weekday", trip_id});
      for (std::size_t k = 0; k < route.stops.size(); ++k) {
        write_csv_record(st_out, {trip_id, render_time(trip.arrivals[k]),
                                  render_time(trip.departures[k]),
                                  "S" + std::to_string(route.stops[k]),
                                  std::to_string(k)});
      }
    }
  }
}

}  // namespace pconn::gtfs
