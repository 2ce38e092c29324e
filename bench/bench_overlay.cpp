// Contraction overlay vs flat graph — the core-routed query bench
// (docs/architecture.md "Contraction overlay").
//
// Per network: contract the time-dependent graph twice, at 1 thread and
// at the default thread count (both times, and whether the two overlays'
// arrays are byte-identical, are reported; shortcut/TTF-point counts and
// memory before/after too), then
// run identical query streams on the flat engines and the overlay engines
// with results enforced identical BEFORE any timing (a speedup over wrong
// answers is meaningless; the full-node differential uses the downward
// sweep). Timed workloads:
//   * time one-to-all  — earliest arrivals at every station (the overlay
//     settles the core only; this plus p2p is the gated headline);
//   * time p2p         — station-to-station earliest arrival, target stop;
//   * lc one-to-all    — the label-correcting profile baseline (reported).
//
// JSON (--json) is archived by CI as BENCH_overlay.json; CI gates
// overlay_speedup (geomean of the one-to-all and p2p speedups across
// networks) >= 1.5 and the identity flags (contraction_identity among
// them; no contraction time is gated). The smoke preset pair is
// the two dense-bus networks — the shape the overlay targets; sparse
// railways sit near 1.0-1.3x (frozen hubs keep their core big) and are
// reported by full runs, same split bench_batchrelax uses.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/lc_profile.hpp"
#include "algo/overlay_query.hpp"
#include "algo/time_query.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

constexpr int kBlocks = 5;

struct OverlayRow {
  std::string name;
  // preprocessing: one contraction at 1 thread, one at the default
  double contraction_ms_t1 = 0.0;
  double contraction_ms_default = 0.0;
  unsigned default_threads = 0;
  bool contraction_identity = false;  // both overlays' arrays byte-equal
  std::uint64_t shortcuts = 0;
  std::uint64_t shortcut_points = 0;
  std::uint64_t contracted = 0;
  std::uint64_t frozen = 0;
  std::size_t flat_nodes = 0;
  std::size_t core_nodes = 0;
  std::size_t flat_bytes = 0;
  std::size_t overlay_bytes = 0;
  // queries (per query, ms)
  double flat_onetoall_ms = 0.0, over_onetoall_ms = 0.0;
  double flat_p2p_ms = 0.0, over_p2p_ms = 0.0;
  double flat_lc_ms = 0.0, over_lc_ms = 0.0;
  bool identity_match = true;

  double onetoall_speedup() const { return flat_onetoall_ms / over_onetoall_ms; }
  double p2p_speedup() const { return flat_p2p_ms / over_p2p_ms; }
  double lc_speedup() const { return flat_lc_ms / over_lc_ms; }
};

std::uint64_t profile_checksum(const Profile& p) {
  std::uint64_t sum = p.size();
  for (const ProfilePoint& pt : p) sum = sum * 1000003 + pt.dep * 2 + pt.arr;
  return sum;
}

void require(bool ok, const char* what, OverlayRow& row) {
  row.identity_match = row.identity_match && ok;
  if (ok) return;
  std::cerr << "FATAL: overlay diverges from the flat graph (" << what
            << ") — timing aborted\n";
  std::exit(1);
}

OverlayRow run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);
  const TdGraph& g = net.graph;

  OverlayRow row;
  row.name = gen::preset_name(preset);

  OverlayContractionOptions serial;
  serial.threads = 1;
  Timer ct;
  const OverlayGraph ov_t1 = contract_graph(net.tt, g, serial);
  row.contraction_ms_t1 = ct.elapsed_ms();
  const OverlayContractionOptions copt;
  row.default_threads = copt.threads;
  ct.restart();
  const OverlayGraph ov = contract_graph(net.tt, g, copt);
  row.contraction_ms_default = ct.elapsed_ms();
  const auto same = [](std::span<const std::byte> a,
                       std::span<const std::byte> b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  };
  row.contraction_identity =
      std::ranges::equal(ov_t1.array_bytes(), ov.array_bytes(), same);
  row.shortcuts = ov.num_shortcuts();
  row.shortcut_points = ov.shortcut_points();
  row.contracted = ov.build_stats().contracted;
  row.frozen = ov.build_stats().frozen;
  row.flat_nodes = g.num_nodes();
  row.core_nodes = ov.num_core_nodes();
  row.flat_bytes = g.memory_bytes();
  row.overlay_bytes = ov.memory_bytes();

  std::cout << "  contraction: " << fixed(row.contraction_ms_t1, 0)
            << " ms at 1 thread, " << fixed(row.contraction_ms_default, 0)
            << " ms at " << row.default_threads << " ("
            << (row.contraction_identity ? "identical" : "DIFFERENT")
            << " overlays), "
            << format_count(row.contracted) << " contracted + "
            << format_count(row.frozen) << " frozen, core "
            << format_count(row.core_nodes) << "/"
            << format_count(row.flat_nodes) << " nodes, "
            << format_count(row.shortcuts) << " shortcuts ("
            << format_count(row.shortcut_points) << " TTF points), memory "
            << format_count(row.flat_bytes) << " -> "
            << format_count(row.overlay_bytes) << " bytes\n";

  const std::vector<StationId> sources =
      random_stations(net.tt, num_queries(), 20260727);
  const std::vector<StationId> targets =
      random_stations(net.tt, num_queries(), 727202);
  const Time dep = 8 * 3600;

  TimeQuery flat(net.tt, g);
  OverlayTimeQuery over(net.tt, g, ov);

  // --- enforced identity (also the warm-up pass) ------------------------
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const StationId s = sources[i];
    flat.run(s, dep);
    over.run(s, dep);
    over.settle_contracted();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      require(over.arrival_at_node(v) == flat.arrival_at_node(v),
              "one-to-all arrival", row);
    }
    // The timed p2p workload takes the early-target-stop branch; check it
    // against the flat engine on the same pairs before timing it.
    flat.run(s, dep, targets[i]);
    over.run(s, dep, targets[i]);
    require(over.arrival_at(targets[i]) == flat.arrival_at(targets[i]),
            "p2p arrival", row);
  }
  {
    LcProfileQuery flat_lc(net.tt, g);
    OverlayLcProfileQuery over_lc(net.tt, ov);
    for (StationId s : sources) {
      flat_lc.run(s);
      over_lc.run(s);
      std::uint64_t a = 0, b = 0;
      for (StationId v = 0; v < net.tt.num_stations(); ++v) {
        a += profile_checksum(flat_lc.profile(v));
        b += profile_checksum(over_lc.profile(v));
      }
      require(a == b, "lc profiles", row);
    }

    // --- timings --------------------------------------------------------
    const int reps = std::max(1, 256 / static_cast<int>(sources.size()));
    double fo = 1e100, oo = 1e100, fp = 1e100, op = 1e100;
    double fl = 1e100, ol = 1e100;
    for (int b = 0; b < kBlocks; ++b) {
      {
        Timer t;
        for (int r = 0; r < reps; ++r) {
          for (StationId s : sources) flat.run(s, dep);
        }
        fo = std::min(fo, t.elapsed_ms());
      }
      {
        Timer t;
        for (int r = 0; r < reps; ++r) {
          for (StationId s : sources) over.run(s, dep);
        }
        oo = std::min(oo, t.elapsed_ms());
      }
      {
        Timer t;
        for (int r = 0; r < reps; ++r) {
          for (std::size_t i = 0; i < sources.size(); ++i) {
            flat.run(sources[i], dep, targets[i]);
          }
        }
        fp = std::min(fp, t.elapsed_ms());
      }
      {
        Timer t;
        for (int r = 0; r < reps; ++r) {
          for (std::size_t i = 0; i < sources.size(); ++i) {
            over.run(sources[i], dep, targets[i]);
          }
        }
        op = std::min(op, t.elapsed_ms());
      }
      {
        Timer t;
        for (StationId s : sources) flat_lc.run(s);
        fl = std::min(fl, t.elapsed_ms());
      }
      {
        Timer t;
        for (StationId s : sources) over_lc.run(s);
        ol = std::min(ol, t.elapsed_ms());
      }
    }
    const double n = static_cast<double>(sources.size());
    row.flat_onetoall_ms = fo / (reps * n);
    row.over_onetoall_ms = oo / (reps * n);
    row.flat_p2p_ms = fp / (reps * n);
    row.over_p2p_ms = op / (reps * n);
    row.flat_lc_ms = fl / n;
    row.over_lc_ms = ol / n;
  }

  TablePrinter table({"workload", "flat [ms]", "overlay [ms]", "spd-up"});
  table.add_row({"time one-to-all", fixed(row.flat_onetoall_ms, 4),
                 fixed(row.over_onetoall_ms, 4),
                 fixed(row.onetoall_speedup(), 2)});
  table.add_row({"time p2p", fixed(row.flat_p2p_ms, 4),
                 fixed(row.over_p2p_ms, 4), fixed(row.p2p_speedup(), 2)});
  table.add_row({"lc one-to-all", fixed(row.flat_lc_ms, 3),
                 fixed(row.over_lc_ms, 3), fixed(row.lc_speedup(), 2)});
  table.print();
  return row;
}

std::string to_json(const std::vector<OverlayRow>& rows) {
  std::vector<double> gated, lc;
  bool contraction_identity = true;
  for (const OverlayRow& r : rows) {
    contraction_identity = contraction_identity && r.contraction_identity;
    gated.push_back(r.onetoall_speedup());
    gated.push_back(r.p2p_speedup());
    lc.push_back(r.lc_speedup());
  }
  JsonWriter w = bench_json_doc(
      "bench_overlay", "core-contraction overlay vs flat time-dependent graph");
  w.key("networks").begin_array();
  for (const OverlayRow& r : rows) {
    w.begin_object()
        .field("name", r.name)
        .field("contraction_ms_t1", r.contraction_ms_t1, 1)
        .field("contraction_ms_default", r.contraction_ms_default, 1)
        .field("contraction_default_threads", r.default_threads)
        .field("contraction_identity", r.contraction_identity)
        .field("contracted", r.contracted)
        .field("frozen", r.frozen)
        .field("flat_nodes", r.flat_nodes)
        .field("core_nodes", r.core_nodes)
        .field("shortcuts", r.shortcuts)
        .field("shortcut_ttf_points", r.shortcut_points)
        .field("flat_bytes", r.flat_bytes)
        .field("overlay_bytes", r.overlay_bytes)
        .field("onetoall_flat_ms", r.flat_onetoall_ms, 4)
        .field("onetoall_overlay_ms", r.over_onetoall_ms, 4)
        .field("onetoall_speedup", r.onetoall_speedup(), 3)
        .field("p2p_flat_ms", r.flat_p2p_ms, 4)
        .field("p2p_overlay_ms", r.over_p2p_ms, 4)
        .field("p2p_speedup", r.p2p_speedup(), 3)
        .field("lc_flat_ms", r.flat_lc_ms, 4)
        .field("lc_overlay_ms", r.over_lc_ms, 4)
        .field("lc_speedup", r.lc_speedup(), 3)
        .field("identity_match", r.identity_match)
        .end_object();
  }
  w.end_array();
  // The gated headline: one-to-all + p2p time queries across networks.
  w.field("overlay_speedup", geomean(gated), 3);
  w.field("lc_speedup_geomean", geomean(lc), 3);
  // Every network's default-thread overlay matches its 1-thread one.
  w.field("contraction_identity", contraction_identity);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);

  std::cout << "Core-contraction overlay vs flat graph (results enforced "
               "identical before timing;\none-to-all + p2p time queries are "
               "the gated workloads)\n";

  std::vector<gen::Preset> presets;
  if (options().smoke) {
    // The two dense-bus presets — the shape the overlay targets and the
    // one the 1.5x gate is calibrated on (see the header note; railway
    // shapes are reported by full runs).
    presets = {gen::Preset::kOahuLike, gen::Preset::kLosAngelesLike};
  } else {
    presets.assign(std::begin(gen::kAllPresets), std::end(gen::kAllPresets));
  }

  std::vector<OverlayRow> rows;
  for (gen::Preset p : presets) rows.push_back(run_network(p));

  if (options().json) emit_json(to_json(rows));
  return 0;
}
