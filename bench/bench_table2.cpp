// Reproduces Table 2: station-to-station profile queries with the stopping
// criterion plus distance-table pruning, sweeping the transfer-station
// budget (0 / 1 / 2.5 / 5 / 10 / 20 / 30 % of stations, selected by
// contraction) and the degree rule (deg > 2).
//
// As in the paper, preprocessing time and table size are reported per row;
// speed-up is over the 0.0% row (stopping criterion only). Rows the paper
// leaves blank for the larger networks ("—") are skipped here too once the
// transfer set would exceed a budget, so the full sweep stays runnable on a
// small machine.
#include <cmath>
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "graph/station_graph.hpp"
#include "s2s/distance_table.hpp"
#include "s2s/s2s_query.hpp"
#include "s2s/transfer_selection.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace pconn::bench {

// The paper uses 8 cores; on smaller machines oversubscription only adds
// timing noise, so default to 2 and let PCONN_THREADS override.
const unsigned kThreads = static_cast<unsigned>(env_int("PCONN_THREADS", 2));

namespace {

struct Row {
  std::string label;
  std::string prepro = "--";
  std::string space = "--";
  std::uint64_t settled = 0;
  double time_ms = 0.0;
};

Row measure(const Network& net, const StationGraph& sg,
            const std::vector<StationId>* transfer, const std::string& label,
            const std::vector<std::pair<StationId, StationId>>& pairs) {
  Row row;
  row.label = label;

  std::optional<DistanceTable> dt;
  if (transfer) {
    DistanceTable::BuildInfo info;
    ParallelSpcsOptions po;
    po.threads = kThreads;
    dt.emplace(
        DistanceTable::build(net.tt, net.graph, *transfer, po, &info));
    row.prepro = format_min_sec(info.preprocessing_seconds);
    row.space = format_bytes(info.table_bytes);
  }

  S2sOptions so;
  so.threads = kThreads;
  S2sQueryEngine engine(net.tt, net.graph, sg, dt ? &*dt : nullptr, so);
  QueryStats total;
  Timer timer;
  for (auto [s, t] : pairs) total += engine.query(s, t).stats;
  row.time_ms = timer.elapsed_ms() / pairs.size();
  row.settled = total.settled / pairs.size();
  return row;
}

void run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);
  StationGraph sg = StationGraph::build(net.tt);

  const int queries = num_queries();
  std::vector<StationId> a = random_stations(net.tt, queries, 777);
  std::vector<StationId> b = random_stations(net.tt, queries, 888);
  std::vector<std::pair<StationId, StationId>> pairs;
  for (int i = 0; i < queries; ++i) pairs.emplace_back(a[i], b[i]);

  TablePrinter table({"transfer set", "prepro [m:s]", "space", "settled conns",
                      "time [ms]", "spd-up"});
  std::vector<Row> rows;
  rows.push_back(measure(net, sg, nullptr, "0.0%", pairs));

  // The paper caps the sweep per network; mirror that with a budget on the
  // number of one-to-all preprocessing runs.
  const std::size_t budget =
      static_cast<std::size_t>(0.8 * net.tt.num_stations());
  for (double frac : {0.01, 0.025, 0.05, 0.10, 0.20, 0.30}) {
    auto keep = static_cast<std::size_t>(
        std::ceil(frac * net.tt.num_stations()));
    if (keep > budget) {
      rows.push_back(Row{fixed(frac * 100, 1) + "%"});
      continue;
    }
    auto transfer = select_transfer_by_contraction(sg, net.tt, keep);
    rows.push_back(
        measure(net, sg, &transfer, fixed(frac * 100, 1) + "%", pairs));
  }
  {
    auto transfer = select_transfer_by_degree(sg, 2);
    if (transfer.size() <= budget && !transfer.empty()) {
      rows.push_back(measure(net, sg, &transfer, "deg > 2", pairs));
    } else {
      rows.push_back(Row{"deg > 2 (" + std::to_string(transfer.size()) +
                         " stations, skipped)"});
    }
  }

  const double base_ms = rows.front().time_ms;
  for (const Row& row : rows) {
    bool ran = row.time_ms > 0.0;
    table.add_row({row.label, row.prepro, row.space,
                   ran ? format_count(row.settled) : "--",
                   ran ? fixed(row.time_ms, 1) : "--",
                   ran ? fixed(base_ms / row.time_ms, 1) : "--"});
  }
  table.print();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);
  std::cout << "Table 2 reproduction: station-to-station queries with "
               "stopping criterion + distance-table pruning (p = " << kThreads
            << ")\n"
            << "(transfer stations by contraction, last row by degree; "
               "spd-up over the 0.0% row)\n";
  const auto presets =
      options().smoke
          ? std::vector<gen::Preset>{gen::Preset::kOahuLike}
          : std::vector<gen::Preset>(std::begin(gen::kAllPresets),
                                     std::end(gen::kAllPresets));
  for (gen::Preset p : presets) run_network(p);
  return 0;
}
