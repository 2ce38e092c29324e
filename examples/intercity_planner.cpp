// Intercity rail planner: the paper's station-to-station pipeline end to
// end on a synthetic national railway — transfer-station selection by
// contraction, distance-table precomputation with the parallel one-to-all
// algorithm, and accelerated station-to-station profile queries
// (stopping criterion + Theorem 3/4 pruning).
#include <iostream>

#include "gen/generator.hpp"
#include "graph/station_graph.hpp"
#include "s2s/distance_table.hpp"
#include "algo/session.hpp"
#include "s2s/s2s_query.hpp"
#include "s2s/transfer_selection.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

using namespace pconn;

int main() {
  gen::RailwayConfig cfg;
  cfg.hubs = 10;
  cfg.extra_hub_links = 5;
  cfg.intercity_stops = 3;
  cfg.regional_lines_per_hub = 3;
  cfg.regional_length = 6;
  cfg.seed = 7;
  cfg.name = "ruritania";
  Timetable tt = gen::make_railway(cfg);
  TdGraph graph = TdGraph::build(tt);
  StationGraph sg = StationGraph::build(tt);

  std::cout << "Railway: " << tt.num_stations() << " stations, "
            << format_count(tt.num_connections()) << " connections/day\n\n";

  // 1. Select ~5% transfer stations by contraction (paper Section 4).
  auto transfer = select_transfer_fraction(sg, tt, 0.05);
  std::cout << "Transfer stations (5% by contraction):";
  for (StationId s : transfer) std::cout << " " << tt.station_name(s);
  std::cout << "\n";

  // 2. Precompute the distance table with the parallel one-to-all SPCS.
  ParallelSpcsOptions po;
  po.threads = 2;
  DistanceTable::BuildInfo info;
  DistanceTable dt = DistanceTable::build(tt, graph, transfer, po, &info);
  std::cout << "Distance table: " << format_min_sec(info.preprocessing_seconds)
            << " preprocessing, " << format_bytes(info.table_bytes) << "\n\n";

  // 3. Accelerated station-to-station queries.
  QuerySessionOptions so;
  so.threads = 2;
  QuerySession fast_session(tt, graph, so);
  S2sQueryEngine& fast = fast_session.s2s_engine(sg, &dt);
  QuerySessionOptions plain_opts = so;
  plain_opts.table_pruning = false;
  QuerySession plain_session(tt, graph, plain_opts);
  S2sQueryEngine& plain = plain_session.s2s_engine(sg, nullptr);

  // A regional stop near hub 0 to a regional stop near hub 5: crosses the
  // country, so the query is global and the table prunes hard.
  StationId from = kInvalidStation, to = kInvalidStation;
  for (StationId s = cfg.hubs; s < tt.num_stations(); ++s) {
    if (tt.station_name(s).find(" R0.0-") != std::string::npos &&
        from == kInvalidStation) {
      from = s;
    }
    if (tt.station_name(s).find(" R5.0-") != std::string::npos) to = s;
  }

  StationQueryResult pruned = fast.query(from, to);
  StationQueryResult unpruned = plain.query(from, to);
  std::cout << "Profile " << tt.station_name(from) << " -> "
            << tt.station_name(to) << " (" << pruned.profile.size()
            << " useful connections over the day):\n";
  std::size_t shown = 0;
  for (const ProfilePoint& p : pruned.profile) {
    if (++shown > 6) {
      std::cout << "  ...\n";
      break;
    }
    std::cout << "  depart " << format_clock(p.dep) << "  arrive "
              << format_clock(p.arr) << "  ("
              << (p.arr - p.dep) / 60 << " min)\n";
  }
  double factor = pruned.stats.settled == 0
                      ? 0.0
                      : static_cast<double>(unpruned.stats.settled) /
                            static_cast<double>(pruned.stats.settled);
  std::cout << "\nWork: " << format_count(pruned.stats.settled)
            << " settled connections with the distance table vs "
            << format_count(unpruned.stats.settled) << " without ("
            << factor << "x saved)\n";
  return 0;
}
