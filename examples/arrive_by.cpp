// Arrive-by planning: an event venue wants to tell every attendee in the
// city the latest bus they can catch to make the 19:00 show. Each stop's
// station-to-station profile into the venue answers it through the
// deadline query, as `pconn_cli arrive-by` does — one profile query per
// stop.
#include <algorithm>
#include <iostream>

#include "algo/journey.hpp"
#include "algo/session.hpp"
#include "gen/generator.hpp"
#include "util/format.hpp"

using namespace pconn;

int main() {
  gen::BusCityConfig cfg;
  cfg.districts_x = 3;
  cfg.districts_y = 2;
  cfg.seed = 1234;
  cfg.name = "showtown";
  Timetable tt = gen::make_bus_city(cfg);

  const StationId venue = static_cast<StationId>(tt.num_stations() / 2);
  const Time showtime = 19 * 3600;
  std::cout << "Venue: " << tt.station_name(venue) << ", show at "
            << format_clock(showtime) << "\n"
            << "City: " << tt.num_stations() << " stops, "
            << format_count(tt.num_connections()) << " connections/day\n\n";

  TdGraph graph = TdGraph::build(tt);
  QuerySessionOptions opt;
  opt.threads = 2;
  QuerySession session(tt, graph, opt);

  // Latest catchable departure per stop, via the deadline query.
  struct Entry {
    StationId stop;
    Time dep;
    Time slack;  // arrival margin before the show
  };
  std::vector<Entry> latest;
  std::size_t unreachable = 0;
  QueryStats work;
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    if (s == venue) continue;
    const StationQueryResult& res = session.station_to_station(s, venue);
    work += res.stats;
    std::uint32_t idx = latest_departure_by(res.profile, showtime);
    if (idx == kNoConn) {
      ++unreachable;
      continue;
    }
    const ProfilePoint& p = res.profile[idx];
    latest.push_back({s, p.dep, showtime - p.arr});
  }

  std::sort(latest.begin(), latest.end(),
            [](const Entry& a, const Entry& b) { return a.dep < b.dep; });
  std::cout << "Earliest 'last chances' (leave earliest to make it):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(6, latest.size()); ++i) {
    const Entry& e = latest[i];
    std::cout << "  " << tt.station_name(e.stop) << ": last bus "
              << format_clock(e.dep) << " (arrives "
              << format_min_sec(e.slack) << " min:s early)\n";
  }
  std::cout << "...\nMost relaxed stops:\n";
  for (std::size_t i = latest.size() > 3 ? latest.size() - 3 : 0;
       i < latest.size(); ++i) {
    const Entry& e = latest[i];
    std::cout << "  " << tt.station_name(e.stop) << ": last bus "
              << format_clock(e.dep) << "\n";
  }
  std::cout << "\n" << latest.size() << " stops can make it, " << unreachable
            << " cannot; it took one profile query per stop ("
            << latest.size() + unreachable << " queries, "
            << format_count(work.settled)
            << " settled connections, " << work.time_ms << " ms).\n";
  return 0;
}
