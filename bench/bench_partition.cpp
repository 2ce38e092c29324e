// Ablation for Section 3.2, "Choice of the Partition": equal time-slots vs
// equal number of connections. Reports the partition imbalance (max subset
// over ideal subset size) and the resulting one-to-all query time; rush
// hours and the night break make the time-slot split lopsided, which is
// exactly why the paper settles on equal connection counts.
//
// The chunk sweep applies the same partition in time at p = 1: the served
// station-to-station query runs conn(S) in chunks of C connections through
// one warm state (SpcsThreadStateT::run_chunked_on, C = kSpcsChunk when
// served). Per C it reports the paper's Table 1 measure (settled
// connections, and its ratio to the unchunked run), time per query and the
// state's arena footprint. Every C must reduce to the unchunked profile.
//
//   bench_partition [--smoke]
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "algo/parallel_spcs.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

/// Station-to-station queries at p = 1 with conn(S) cut into chunks of C
/// connections, C in {16, 32, 64, whole range}; one warm state and arena
/// per C, so the footprint column is what a serving session would hold.
void run_chunk_sweep(const Network& net) {
  constexpr std::uint32_t kWhole = std::numeric_limits<std::uint32_t>::max();
  const int pairs = 8 * num_queries();
  const std::vector<StationId> src = random_stations(net.tt, pairs, 4343);
  const std::vector<StationId> dst = random_stations(net.tt, pairs, 4444);
  const SpcsOptions opt;  // the served configuration

  struct Row {
    std::uint32_t chunk;
    std::uint64_t settled = 0;
    double ms = 0.0;
    std::size_t bytes = 0;
  };
  std::vector<Row> rows{{16}, {32}, {64}, {kWhole}};
  std::vector<Profile> want(pairs);
  Profile raw, got;
  // Whole range first: its profiles are the reference for every C.
  for (auto row = rows.rbegin(); row != rows.rend(); ++row) {
    QueryWorkspace ws;
    SpcsThreadState state(&ws);
    Timer timer;
    for (int i = 0; i < pairs; ++i) {
      const auto conns = net.tt.outgoing(src[i]);
      raw.resize(conns.size());
      state.run_chunked_on(net.graph, net.graph, net.tt, conns, 0,
                           static_cast<std::uint32_t>(conns.size()), dst[i],
                           opt, raw.data(), row->chunk);
      row->settled += state.stats().settled;
      reduce_profile_into(raw, net.tt.period(), got);
      if (row->chunk == kWhole) {
        want[i] = got;
      } else if (got != want[i]) {
        std::cerr << "chunk " << row->chunk << ": profile " << src[i]
                  << " -> " << dst[i] << " differs from the unchunked run\n";
        std::exit(1);
      }
    }
    row->ms = timer.elapsed_ms() / pairs;
    row->bytes = ws.bytes_reserved();
  }

  const double whole = static_cast<double>(std::max<std::uint64_t>(
      1, rows.back().settled));
  TablePrinter table({"chunk C", "settled/query", "x unchunked",
                      "time [ms]", "scratch"});
  for (const Row& row : rows) {
    table.add_row(
        {row.chunk == kWhole ? "whole" : std::to_string(row.chunk),
         format_count(row.settled / static_cast<std::uint64_t>(pairs)),
         fixed(static_cast<double>(row.settled) / whole, 3),
         fixed(row.ms, 3), format_bytes(row.bytes)});
  }
  std::cout << "chunk sweep, p = 1, " << pairs
            << " station-to-station queries:\n";
  table.print();
}

void run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);

  const int queries = std::max(4, num_queries() / 2);
  std::vector<StationId> sources = random_stations(net.tt, queries, 4242);

  TablePrinter table({"strategy", "p", "imbalance", "time [ms]",
                      "thread spread [ms]"});
  for (PartitionStrategy strat : {PartitionStrategy::kEqualTimeSlots,
                                  PartitionStrategy::kEqualConnections,
                                  PartitionStrategy::kKMeans}) {
    const char* name = strat == PartitionStrategy::kEqualTimeSlots
                           ? "equal time-slots"
                       : strat == PartitionStrategy::kEqualConnections
                           ? "equal connections"
                           : "k-means";
    for (unsigned p : {2u, 4u, 8u}) {
      ParallelSpcsOptions opt;
      opt.threads = p;
      opt.partition = strat;
      ParallelSpcs spcs(net.tt, net.graph, opt);
      double imbalance = 0.0, spread = 0.0;
      Timer timer;
      for (StationId s : sources) {
        OneToAllResult res = spcs.one_to_all(s);
        imbalance += partition_imbalance(spcs.last_boundaries());
        spread += res.max_thread_ms - res.min_thread_ms;
      }
      table.add_row({name, std::to_string(p),
                     fixed(imbalance / queries, 2),
                     fixed(timer.elapsed_ms() / queries, 1),
                     fixed(spread / queries, 1)});
    }
  }
  table.print();
  run_chunk_sweep(net);
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  pconn::bench::parse_bench_args(argc, argv);
  std::cout << "Partition-strategy ablation (Section 3.2): imbalance and "
               "query time, plus the chunk sweep at p = 1\n";
  for (pconn::gen::Preset p : pconn::gen::kAllPresets) {
    pconn::bench::run_network(p);
  }
  return 0;
}
