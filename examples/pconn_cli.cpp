// pconn_cli — command-line journey planner over GTFS feeds, generated
// presets, or cached PCSN snapshots (timetable/snapshot.hpp).
//
// Usage:
//   pconn_cli [--gtfs DIR | --preset NAME | --load FILE] [--save FILE]
//             [--threads N] COMMAND ...
// Commands:
//   stations [PATTERN]             list stations (optionally filtered)
//   route FROM TO HH:MM:SS         earliest-arrival journey
//   profile FROM TO                all best connections of the day
//   options FROM TO HH:MM:SS       Pareto arrival/transfer trade-offs
//   arrive-by FROM TO HH:MM:SS     latest departure to make a deadline
// FROM/TO are station ids or unambiguous name substrings; TIME is HH:MM:SS.
// Malformed input prints an error or the usage and exits 1 or 2.
#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algo/journey.hpp"
#include "algo/session.hpp"
#include "gen/generator.hpp"
#include "timetable/gtfs.hpp"
#include "timetable/load_error.hpp"
#include "timetable/snapshot.hpp"
#include "util/format.hpp"

using namespace pconn;

namespace {

/// Upper bound of --threads: each thread is a pool worker of the session.
constexpr std::uint64_t kMaxThreads = 256;

int usage() {
  std::cerr << "usage: pconn_cli [--gtfs DIR | --preset NAME | --load FILE]\n"
               "                 [--save FILE] [--threads 1..256] COMMAND ...\n"
               "commands: stations [PATTERN] | route FROM TO TIME |\n"
               "          profile FROM TO | options FROM TO TIME |\n"
               "          arrive-by FROM TO TIME\n"
               "presets: oahu-like losangeles-like washington-like "
               "germany-like europe-like\n";
  return 2;
}

/// The whole of `s` as a decimal number; nullopt for an empty string, any
/// non-digit, or a value past 64 bits.
std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<StationId> find_station(const Timetable& tt,
                                      const std::string& what) {
  // Exact numeric id first; a number that is no station id falls through
  // to the name search.
  if (const auto id = parse_u64(what); id && *id < tt.num_stations()) {
    return static_cast<StationId>(*id);
  }
  std::vector<StationId> hits;
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    if (tt.station_name(s).find(what) != std::string::npos) hits.push_back(s);
    if (tt.station_name(s) == what) return s;
  }
  if (hits.size() == 1) return hits[0];
  if (hits.empty()) {
    std::cerr << "no station matches '" << what << "'\n";
  } else {
    std::cerr << "'" << what << "' is ambiguous (" << hits.size()
              << " matches), e.g. " << tt.station_name(hits[0]) << " / "
              << tt.station_name(hits[1]) << "\n";
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Timetable> tt;
  std::string save_path;
  unsigned threads = 2;
  int i = 1;
  // A feed or snapshot that cannot be read ends the run with its error.
  try {
    for (; i < argc && std::strncmp(argv[i], "--", 2) == 0; ++i) {
      std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      std::string value = argv[++i];
      if (flag == "--gtfs") {
        tt = gtfs::load(value);
      } else if (flag == "--preset") {
        bool found = false;
        for (gen::Preset p : gen::kAllPresets) {
          if (value == gen::preset_name(p)) {
            tt = gen::make_preset(p);
            found = true;
          }
        }
        if (!found) return usage();
      } else if (flag == "--load") {
        tt = MappedSnapshot(value).load_timetable();
      } else if (flag == "--save") {
        save_path = value;
      } else if (flag == "--threads") {
        const auto n = parse_u64(value);
        if (!n || *n == 0 || *n > kMaxThreads) return usage();
        threads = static_cast<unsigned>(*n);
      } else {
        return usage();
      }
    }
  } catch (const LoadError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  if (!tt) {
    std::cout << "(no input given: generating the oahu-like preset)\n";
    tt = gen::make_preset(gen::Preset::kOahuLike);
  }
  if (!save_path.empty()) {
    save_snapshot(*tt, nullptr, save_path);
    std::cout << "saved timetable to " << save_path << "\n";
  }
  if (i >= argc) return usage();
  std::string cmd = argv[i++];

  if (cmd == "stations") {
    std::string pattern = i < argc ? argv[i] : "";
    for (StationId s = 0; s < tt->num_stations(); ++s) {
      if (tt->station_name(s).find(pattern) == std::string::npos) continue;
      std::cout << s << "\t" << tt->station_name(s) << "\t"
                << tt->outgoing(s).size() << " departures/day\n";
    }
    return 0;
  }

  if (i + 1 >= argc) return usage();
  auto from = find_station(*tt, argv[i]);
  auto to = find_station(*tt, argv[i + 1]);
  if (!from || !to) return 1;
  TdGraph g = TdGraph::build(*tt);
  // One warm session serves every subcommand (a long-running CLI daemon
  // would keep it across requests).
  QuerySession session(*tt, g, {.threads = threads});

  if (cmd == "route" || cmd == "options" || cmd == "arrive-by") {
    if (i + 2 >= argc) return usage();
    Time when = 0;
    try {
      when = gtfs::parse_time(argv[i + 2]);
    } catch (const LoadError& e) {
      std::cerr << "bad time '" << argv[i + 2] << "': " << e.what() << "\n";
      return usage();
    }

    if (cmd == "route") {
      const Journey* j = session.journey(*from, when, *to);
      if (!j) {
        std::cout << "unreachable\n";
        return 1;
      }
      std::cout << describe_journey(*tt, *j);
      return 0;
    }
    if (cmd == "options") {
      auto front = session.pareto(*from, when, *to);
      if (front.empty()) {
        std::cout << "unreachable\n";
        return 1;
      }
      for (const McLabel& l : front) {
        std::cout << "arrive " << format_clock(l.arr, tt->period()) << " with "
                  << (l.boards == 0 ? 0 : l.boards - 1) << " transfer(s)\n";
      }
      return 0;
    }
    // arrive-by
    const StationQueryResult& res = session.station_to_station(*from, *to);
    std::uint32_t idx = latest_departure_by(res.profile, when);
    if (idx == kNoConn) {
      std::cout << "no connection arrives by "
                << format_clock(when, tt->period()) << "\n";
      return 1;
    }
    const ProfilePoint& p = res.profile[idx];
    std::cout << "latest departure " << format_clock(p.dep, tt->period())
              << ", arriving " << format_clock(p.arr, tt->period()) << "\n";
    return 0;
  }

  if (cmd == "profile") {
    const StationQueryResult& res = session.station_to_station(*from, *to);
    std::cout << tt->station_name(*from) << " -> " << tt->station_name(*to)
              << ": " << res.profile.size()
              << " best connections over the day ("
              << format_count(res.stats.settled)
              << " settled connections, " << res.stats.time_ms << " ms)\n";
    for (const ProfilePoint& p : res.profile) {
      std::cout << "  " << format_clock(p.dep, tt->period()) << " -> "
                << format_clock(p.arr, tt->period()) << "  ("
                << (p.arr - p.dep) / 60 << " min)\n";
    }
    return 0;
  }
  return usage();
}
