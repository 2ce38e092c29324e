// Query-matrix batching — the throughput-mode matrix bench
// (docs/architecture.md "Throughput execution").
//
// The paper's timed workloads are streams and matrices of queries, not
// single shots. Per network this bench times the one-to-all matrix —
// node-level earliest arrivals from S sources — both ways: a warm
// OverlayTimeQuery loop (run + settle_contracted per source) vs one
// overlay_run_batch (algo/multi_query.hpp) followed by
// settle_contracted_batch — the cross-lane down-sweep whose fixed
// rank-descending order lets every down-edge feed arrival_tn with all S
// lanes at once. Every entry is enforced identical BEFORE any timing.
// The lane-occupancy report (mean eval lane count + log2 width histogram)
// comes from the engine's BatchStats — one record per kernel call, its
// width as the size.
//
// JSON (--json) is archived by CI as BENCH_multiquery.json; CI gates
//   * multiquery_speedup >= 1.3 — geomean of the one-to-all matrix
//     speedups (batched vs per-query loop) across networks;
//   * mean_lane_count >= 32 — the cross-lane sweep's mean eval width over
//     the whole matrix (gathered lanes / kernel calls; the lanes' ascents
//     make no kernel calls).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/multi_query.hpp"
#include "algo/overlay_query.hpp"
#include "algo/session.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

constexpr int kBlocks = 5;
/// Matrix shape: every source row is one query lane (one wave of 64).
constexpr std::size_t kSources = 64;

/// Throughput batching amortizes per-edge metadata work over the matrix, so
/// the effect grows with network size; the generic smoke cap (scale 0.3)
/// would time exactly the regime the batch engines do not target. Full
/// scale stays smoke-fast here — contraction costs <= ~60 ms per preset and
/// the matrices a few ms — so this bench pins the smoke scale to 1.0.
/// PCONN_SCALE still applies to full (non-smoke) runs.
double matrix_scale() { return options().smoke ? 1.0 : scale(); }

struct MultiRow {
  std::string name;
  std::size_t sources = 0;
  // one-to-all node matrix (the gated workload), ms per matrix
  double onetoall_perquery_ms = 0.0, onetoall_batched_ms = 0.0;
  // lane occupancy of the batched eval stages (whole matrix)
  double over_mean_lanes = 0.0;
  std::array<std::uint64_t, 16> over_lane_hist{};
  std::uint64_t over_gathers = 0, over_gathered = 0;
  bool identity_match = true;

  double onetoall_speedup() const {
    return onetoall_perquery_ms / onetoall_batched_ms;
  }
};

void require(bool ok, const char* what, MultiRow& row) {
  row.identity_match = row.identity_match && ok;
  if (ok) return;
  std::cerr << "FATAL: batched matrix diverges from the per-query loop ("
            << what << ") — timing aborted\n";
  std::exit(1);
}

MultiRow run_network(gen::Preset preset) {
  Network net = load_network(preset, matrix_scale());
  print_network_header(net);
  const TdGraph& g = net.graph;

  MultiRow row;
  row.name = gen::preset_name(preset);
  row.sources = kSources;

  const OverlayGraph ov = contract_graph(net.tt, g);

  const std::vector<StationId> sources =
      random_stations(net.tt, static_cast<int>(kSources), 20260808);
  const Time dep = 8 * 3600;

  std::vector<BatchQuery> onetoall(kSources);
  for (std::size_t i = 0; i < kSources; ++i) {
    onetoall[i] = {.source = sources[i], .departure = dep};
  }

  QuerySession session(net.tt, g);
  session.multi_overlay_engine(ov);
  OverlayTimeQuery over(net.tt, g, ov);

  // --- enforced identity (also the warm-up pass) ------------------------
  {
    // One-to-all node matrix: overlay_run_batch + the cross-lane sweep vs
    // run + settle_contracted per source, compared at EVERY node.
    auto& eng = session.overlay_run_batch(onetoall);
    eng.settle_contracted_batch();
    const BatchStats& bs = eng.batch_stats();
    row.over_mean_lanes = bs.mean_gather();
    row.over_lane_hist = bs.fanout_hist;
    row.over_gathers = bs.gathers;
    row.over_gathered = bs.gathered_edges;
    for (std::size_t i = 0; i < kSources; ++i) {
      over.run(sources[i], dep);
      over.settle_contracted();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        require(eng.arrival_at_node(i, v) == over.arrival_at_node(v),
                "one-to-all matrix node arrival", row);
      }
    }
  }

  // --- timings ----------------------------------------------------------
  std::uint64_t sink = 0;
  double oaq = 1e100, oab = 1e100;
  for (int b = 0; b < kBlocks; ++b) {
    {
      Timer t;
      for (StationId s : sources) {
        over.run(s, dep);
        over.settle_contracted();
        sink += over.arrival_at_node(static_cast<NodeId>(b));
      }
      oaq = std::min(oaq, t.elapsed_ms());
    }
    {
      Timer t;
      auto& eng = session.overlay_run_batch(onetoall);
      eng.settle_contracted_batch();
      sink += eng.arrival_at_node(0, static_cast<NodeId>(b));
      oab = std::min(oab, t.elapsed_ms());
    }
  }
  if (sink == 0) std::cout << "";  // keep the reads observable
  row.onetoall_perquery_ms = oaq;
  row.onetoall_batched_ms = oab;

  TablePrinter table(
      {"matrix 64 lanes", "per-query [ms]", "batched [ms]", "spd-up"});
  table.add_row({"one-to-all nodes", fixed(row.onetoall_perquery_ms, 2),
                 fixed(row.onetoall_batched_ms, 2),
                 fixed(row.onetoall_speedup(), 2)});
  table.print();
  std::cout << "  lane occupancy: overlay mean " << fixed(row.over_mean_lanes, 1)
            << " lanes/call\n";
  return row;
}

std::string to_json(const std::vector<MultiRow>& rows) {
  std::vector<double> gated;
  std::uint64_t gathers = 0, gathered = 0;
  for (const MultiRow& r : rows) {
    gated.push_back(r.onetoall_speedup());
    gathers += r.over_gathers;
    gathered += r.over_gathered;
  }
  JsonWriter w = bench_json_doc(
      "bench_multiquery",
      "batched query matrices vs per-query loops (per-lane ascent + "
      "cross-lane down-sweep)");
  // The generic "scale" field reports the smoke-capped value; the matrices
  // actually run at matrix_scale() (see its comment).
  w.field("matrix_scale", matrix_scale(), 3);
  w.key("networks").begin_array();
  for (const MultiRow& r : rows) {
    w.begin_object()
        .field("name", r.name)
        .field("sources", r.sources)
        .field("onetoall_perquery_ms", r.onetoall_perquery_ms, 3)
        .field("onetoall_batched_ms", r.onetoall_batched_ms, 3)
        .field("onetoall_speedup", r.onetoall_speedup(), 3)
        .field("overlay_mean_lanes", r.over_mean_lanes, 2)
        .field("identity_match", r.identity_match);
    w.key("lane_hist_log2").begin_array();
    for (std::uint64_t h : r.over_lane_hist) w.value(h);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  // The gated headline: the one-to-all node matrix across networks, and
  // the overlay engines' accumulated mean eval lane width.
  w.field("multiquery_speedup", geomean(gated), 3);
  w.field("mean_lane_count",
          gathers == 0 ? 0.0
                       : static_cast<double>(gathered) /
                             static_cast<double>(gathers),
          2);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);

  std::cout << "Batched query matrices vs per-query loops (results enforced "
               "identical before\ntiming; the one-to-all node matrix is the "
               "gated workload)\n";

  std::vector<gen::Preset> presets;
  if (options().smoke) {
    // The three dense-bus presets: the overlay core is the shape the
    // throughput engines target (the rail presets' narrow fans sit at
    // break-even).
    presets = {gen::Preset::kOahuLike, gen::Preset::kLosAngelesLike,
               gen::Preset::kWashingtonLike};
  } else {
    presets.assign(std::begin(gen::kAllPresets), std::end(gen::kAllPresets));
  }

  std::vector<MultiRow> rows;
  for (gen::Preset p : presets) rows.push_back(run_network(p));

  if (options().json) emit_json(to_json(rows));
  return 0;
}
