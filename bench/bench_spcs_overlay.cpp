// Overlay-routed vs flat parallel SPCS — the partitioned profile search
// over the contracted core (docs/architecture.md "Overlay-routed SPCS").
//
// Per network: contract once, then for thread counts {1, 2, 4, 8} run the
// same one-to-all profile query stream through the flat ParallelSpcs and
// the overlay-routed one, with every station profile enforced
// byte-identical BEFORE any timing (the identity pass doubles as the
// warm-up), a node-level differential through the batched down-sweep, and
// the overlay profiles enforced identical ACROSS thread counts
// (determinism). The timed workload is the paper's Table-1 shape — full
// one-to-all station profiles — so the overlay run needs no down-sweep;
// the sweep is timed separately and reported in the per-phase breakdown
// (ascent / sweep / merge).
//
// JSON (--json) is archived by CI as BENCH_spcs_overlay.json; CI gates
// spcs_overlay_speedup (geomean of the overlay-vs-flat speedups at EQUAL
// thread counts, across networks) >= 1.3 plus the identity and
// thread-determinism flags. Equal-thread-count ratios measure the
// overlay's work reduction independently of the host's core count, so the
// gate is stable on single-core CI runners. The smoke preset pair is the
// two dense-bus networks, as in bench_overlay (sparse railways keep a big
// frozen core and sit near break-even; full runs report them).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/parallel_spcs.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

constexpr int kBlocks = 5;
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

struct SpcsOverlayRow {
  unsigned threads = 0;
  double flat_ms = 0.0, over_ms = 0.0;
  double ascent_ms = 0.0, sweep_ms = 0.0, merge_ms = 0.0;  // per query
  double speedup() const { return flat_ms / over_ms; }
};

struct NetworkRows {
  std::string name;
  double contraction_ms = 0.0;
  std::size_t core_nodes = 0, flat_nodes = 0;
  std::vector<SpcsOverlayRow> rows;
  bool identity_match = true;
  bool thread_determinism = true;
};

std::uint64_t profile_checksum(const Profile& p) {
  std::uint64_t sum = p.size();
  for (const ProfilePoint& pt : p) sum = sum * 1000003 + pt.dep * 2 + pt.arr;
  return sum;
}

void require(bool ok, const char* what, NetworkRows& net) {
  net.identity_match = net.identity_match && ok;
  if (ok) return;
  std::cerr << "FATAL: overlay SPCS diverges from flat SPCS (" << what
            << ") — timing aborted\n";
  std::exit(1);
}

ParallelSpcsOptions spcs_opts(unsigned threads) {
  ParallelSpcsOptions o;
  o.threads = threads;
  return o;
}

NetworkRows run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);
  const TdGraph& g = net.graph;

  NetworkRows out;
  out.name = gen::preset_name(preset);
  out.flat_nodes = g.num_nodes();

  Timer ct;
  const OverlayGraph ov = contract_graph(net.tt, g);
  out.contraction_ms = ct.elapsed_ms();
  out.core_nodes = ov.num_core_nodes();
  std::cout << "  contraction: " << fixed(out.contraction_ms, 0)
            << " ms, core " << format_count(out.core_nodes) << "/"
            << format_count(out.flat_nodes) << " nodes\n";

  const std::vector<StationId> sources =
      random_stations(net.tt, num_queries(), 20260808);

  // Per (source, station) overlay profile checksums of the first thread
  // count — the determinism reference the other thread counts must hit.
  std::vector<std::uint64_t> ref_checksums;

  TablePrinter table({"threads", "flat [ms]", "overlay [ms]", "spd-up",
                      "ascent", "sweep", "merge"});
  for (const unsigned threads : kThreadCounts) {
    ParallelSpcs flat(net.tt, g, spcs_opts(threads));
    ParallelSpcs over(net.tt, g, ov, spcs_opts(threads));
    OneToAllResult flat_buf, over_buf;

    // --- enforced identity (also the warm-up pass) ----------------------
    std::size_t ck = 0;
    for (const StationId s : sources) {
      flat.one_to_all_into(s, flat_buf);
      over.one_to_all_into(s, over_buf);
      for (StationId v = 0; v < net.tt.num_stations(); ++v) {
        require(over_buf.profiles[v] == flat_buf.profiles[v],
                "station profile", out);
        const std::uint64_t c = profile_checksum(over_buf.profiles[v]);
        if (threads == kThreadCounts[0]) {
          ref_checksums.push_back(c);
        } else {
          out.thread_determinism =
              out.thread_determinism && ref_checksums[ck] == c;
        }
        ++ck;
      }
    }
    require(out.thread_determinism, "thread-count determinism", out);
    // Node-level differential through the batched down-sweep, last source
    // (stations are checked above; this exercises the contracted fan).
    over.settle_contracted();
    const std::size_t stride = g.num_nodes() < 4096 ? 1 : g.num_nodes() / 2048;
    for (NodeId v = 0; v < g.num_nodes(); v += stride) {
      require(over.node_profile(sources.back(), v) ==
                  flat.node_profile(sources.back(), v),
              "node profile after sweep", out);
    }

    // --- timings --------------------------------------------------------
    SpcsOverlayRow row;
    row.threads = threads;
    double fo = 1e100, oo = 1e100;
    double ascent = 0.0, sweep = 0.0, merge = 0.0;
    for (int b = 0; b < kBlocks; ++b) {
      {
        Timer t;
        for (const StationId s : sources) flat.one_to_all_into(s, flat_buf);
        fo = std::min(fo, t.elapsed_ms());
      }
      {
        Timer t;
        double a = 0.0, m = 0.0, sw = 0.0;
        for (const StationId s : sources) {
          over.one_to_all_into(s, over_buf);
          a += over_buf.max_thread_ms;
          m += over.merge_ms();
        }
        const double total = t.elapsed_ms();
        // The sweep is not part of the station-profile workload; time it
        // separately for the breakdown (one sweep per query).
        for (const StationId s : sources) {
          over.one_to_all_into(s, over_buf);
          Timer ts;
          over.settle_contracted();
          sw += ts.elapsed_ms();
        }
        if (total < oo) {
          oo = total;
          ascent = a;
          merge = m;
          sweep = sw;
        }
      }
    }
    const double n = static_cast<double>(sources.size());
    row.flat_ms = fo / n;
    row.over_ms = oo / n;
    row.ascent_ms = ascent / n;
    row.sweep_ms = sweep / n;
    row.merge_ms = merge / n;
    table.add_row({std::to_string(threads), fixed(row.flat_ms, 3),
                   fixed(row.over_ms, 3), fixed(row.speedup(), 2),
                   fixed(row.ascent_ms, 3), fixed(row.sweep_ms, 3),
                   fixed(row.merge_ms, 3)});
    out.rows.push_back(row);
  }
  table.print();
  return out;
}

std::string to_json(const std::vector<NetworkRows>& nets) {
  std::vector<double> speedups;
  bool identity = true, determinism = true;
  for (const NetworkRows& net : nets) {
    for (const SpcsOverlayRow& r : net.rows) speedups.push_back(r.speedup());
    identity = identity && net.identity_match;
    determinism = determinism && net.thread_determinism;
  }
  JsonWriter w = bench_json_doc(
      "bench_spcs_overlay",
      "overlay-routed vs flat parallel SPCS one-to-all profile queries");
  w.key("networks").begin_array();
  for (const NetworkRows& net : nets) {
    w.begin_object()
        .field("name", net.name)
        .field("contraction_ms", net.contraction_ms, 1)
        .field("flat_nodes", net.flat_nodes)
        .field("core_nodes", net.core_nodes)
        .field("identity_match", net.identity_match)
        .field("thread_determinism", net.thread_determinism);
    w.key("thread_counts").begin_array();
    for (const SpcsOverlayRow& r : net.rows) {
      w.begin_object()
          .field("threads", static_cast<std::uint64_t>(r.threads))
          .field("flat_ms", r.flat_ms, 4)
          .field("overlay_ms", r.over_ms, 4)
          .field("speedup", r.speedup(), 3)
          .field("ascent_ms", r.ascent_ms, 4)
          .field("sweep_ms", r.sweep_ms, 4)
          .field("merge_ms", r.merge_ms, 4)
          .end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  // The gated headline: equal-thread-count overlay-vs-flat speedups.
  w.field("spcs_overlay_speedup", geomean(speedups), 3);
  w.field("identity_match", identity);
  w.field("thread_determinism", determinism);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);

  std::cout << "Overlay-routed vs flat parallel SPCS (station profiles "
               "enforced byte-identical before timing,\nplus node-level and "
               "thread-count differentials; equal-thread-count speedups are "
               "the gated headline)\n";

  std::vector<gen::Preset> presets;
  if (options().smoke) {
    presets = {gen::Preset::kOahuLike, gen::Preset::kLosAngelesLike};
  } else {
    presets.assign(std::begin(gen::kAllPresets), std::end(gen::kAllPresets));
  }

  std::vector<NetworkRows> nets;
  for (gen::Preset p : presets) nets.push_back(run_network(p));

  if (options().json) emit_json(to_json(nets));
  return 0;
}
