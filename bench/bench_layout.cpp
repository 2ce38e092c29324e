// Old-vs-new graph layout: the PR-3 data-layout pass measured in isolation.
//
// "Legacy" reconstructs the seed representation faithfully — 12-byte AoS
// edge records {head, ttf, weight} and one heap-allocated Ttf (own point
// vector, binary-search eval) per travel edge — from the same timetable.
// "Pooled" is the shipped layout: 8-byte SoA edges (4-byte head stream +
// 4-byte packed ttf-or-weight word), all TTF points in one CSR pool with
// the bucket-indexed O(1) eval, and the prefetched relax loop.
//
// Two workloads per Table-1 network:
//  * relax path — every edge of every node evaluated at a grid of entry
//    times, reported as ns/edge (the pure memory+eval cost of a relax),
//    next to the pooled side's scanned_points_per_eval: the points eval
//    steps over past its bucket entry, per travel-function eval (a count,
//    not a time, and ungated — it tells a shorter scan from cheaper loads);
//  * one-to-all — full earliest-arrival Dijkstra from random sources, the
//    degenerate W = 1 SPCS; the legacy side replicates the seed TimeQuery
//    loop (evaluate first, then test settled) on the legacy layout, the
//    new side is the shipped TimeQuery.
// Both sides must settle and push identical counts and agree on every
// arrival (checksummed); the bench aborts otherwise. `layout_speedup` is
// the one-to-all geomean. CI runs this binary and its 15 padded twins
// (CMakeLists.txt, bench/layout_pad.cpp), gates the median of their
// `layout_speedup` at >= 1.2 and archives this binary's JSON (--json),
// with the per-link ratios added, as BENCH_layout.json.
#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/time_query.hpp"
#include "bench_common.hpp"
#include "graph/ttf.hpp"
#include "util/epoch_array.hpp"
#include "util/format.hpp"
#include "util/heap.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

// ------------------------------------------------------------------ legacy

/// The seed's AoS graph: edge records with the TTF index inline, one Ttf
/// object (own heap vector, lower_bound eval) per travel edge.
struct LegacyGraph {
  struct Edge {
    NodeId head;
    std::uint32_t ttf;  // kNoTtf => constant `weight`
    Time weight;
  };

  Time period = kDayseconds;
  std::size_t num_stations = 0;
  std::vector<std::uint32_t> edge_begin;
  std::vector<Edge> edges;
  std::vector<Ttf> ttfs;

  static LegacyGraph build(const TdGraph& g) {
    LegacyGraph lg;
    lg.period = g.period();
    lg.num_stations = g.num_stations();
    lg.edge_begin.assign(g.num_nodes() + 1, 0);
    lg.edges.reserve(g.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      lg.edge_begin[v] = static_cast<std::uint32_t>(lg.edges.size());
      for (const TdGraph::Edge& e : g.out_edges(v)) {
        if (e.ttf == kNoTtf) {
          lg.edges.push_back({e.head, kNoTtf, e.weight});
        } else {
          auto pts = g.ttfs().points(e.ttf);
          std::uint32_t idx = static_cast<std::uint32_t>(lg.ttfs.size());
          // The points are already reduced; Ttf::build is an identity
          // re-pack into a per-function vector, exactly the seed storage.
          lg.ttfs.push_back(
              Ttf::build({pts.begin(), pts.end()}, g.period()));
          lg.edges.push_back({e.head, idx, 0});
        }
      }
    }
    lg.edge_begin[g.num_nodes()] = static_cast<std::uint32_t>(lg.edges.size());
    return lg;
  }

  Time arrival_via(const Edge& e, Time t) const {
    if (e.ttf == kNoTtf) return t + e.weight;
    return ttfs[e.ttf].arrival(t);
  }

  std::size_t num_nodes() const { return edge_begin.size() - 1; }

  /// Same accounting as the seed TdGraph::memory_bytes (edge records plus
  /// raw point bytes; the per-vector heap headers are not even counted,
  /// so the comparison flatters the legacy side).
  std::size_t memory_bytes() const {
    std::size_t bytes = edge_begin.size() * sizeof(std::uint32_t) +
                        edges.size() * sizeof(Edge);
    for (const Ttf& f : ttfs) bytes += f.size() * sizeof(TtfPoint);
    return bytes;
  }
};

/// The seed TimeQuery loop (evaluate, count, then test settled) over the
/// legacy layout, with the same binary heap and epoch arrays.
struct LegacyTimeQuery {
  const LegacyGraph& g;
  DAryHeap<Time, 2> heap;
  EpochArray<Time> dist;
  EpochArray<NodeId> parent;  // seed TimeQuery tracks parents — so do we
  EpochArray<std::uint8_t> settled;
  QueryStats stats;

  explicit LegacyTimeQuery(const LegacyGraph& lg) : g(lg) {
    heap.reset_capacity(lg.num_nodes());
    dist.assign(lg.num_nodes(), kInfTime);
    parent.assign(lg.num_nodes(), kInvalidNode);
    settled.assign(lg.num_nodes(), 0);
  }

  void run(StationId source, Time departure) {
    stats = QueryStats{};
    heap.clear();
    dist.clear();
    parent.clear();
    settled.clear();
    const NodeId src = source;  // station_node(s) == s
    dist.set(src, departure);
    heap.push(src, departure);
    stats.pushed++;
    while (!heap.empty()) {
      auto [v, key] = heap.pop();
      stats.settled++;
      settled.set(v, 1);
      const std::uint32_t eb = g.edge_begin[v], ee = g.edge_begin[v + 1];
      for (std::uint32_t ei = eb; ei < ee; ++ei) {
        const LegacyGraph::Edge& e = g.edges[ei];
        Time t = (v == src && e.ttf == kNoTtf) ? key : g.arrival_via(e, key);
        if (t == kInfTime) continue;
        stats.relaxed++;
        if (settled.get(e.head)) continue;
        if (t < dist.get(e.head)) {
          if (heap.push_or_decrease(e.head, t) == QueuePush::kPushed) {
            stats.pushed++;
          } else {
            stats.decreased++;
          }
          dist.set(e.head, t);
          parent.set(e.head, v);
        }
      }
    }
  }
};

// ------------------------------------------------------------------- rows

struct LayoutRow {
  std::string name;
  double legacy_relax_ns = 0, pooled_relax_ns = 0;   // per edge evaluation
  double scanned_points_per_eval = 0;  // pooled, past the bucket entry
  double legacy_otoa_ms = 0, pooled_otoa_ms = 0;     // per one-to-all query
  std::size_t legacy_bytes = 0, pooled_bytes = 0;
  bool accounting_match = true;

  double relax_speedup() const { return legacy_relax_ns / pooled_relax_ns; }
  double otoa_speedup() const { return legacy_otoa_ms / pooled_otoa_ms; }
};

/// Entry-time grid shared by both relax-path measurements.
std::vector<Time> relax_times(Time period) {
  std::vector<Time> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back(static_cast<Time>((period / 6) * i + 731));
  }
  return out;
}

/// Points the pooled eval at reduced time tau steps over past its bucket
/// entry in a function with points `pts`, recomputed from the index's
/// shape (graph/ttf_pool.hpp): a function of n >= kMinIndexedPoints points
/// has B = min(bit_ceil(n) / kPointsPerBucket, 2^16) buckets, a smaller
/// one a single bucket; time x maps to bucket (x * B * floor(2^32 /
/// period)) >> 32; a bucket's entry is the first point whose departure
/// maps to that bucket or later, and the scan ends at the first point
/// departing at tau or later.
std::uint32_t scan_steps(const TtfPool::Points& pts, Time period, Time tau) {
  const std::size_t n = pts.size();
  std::uint64_t buckets = 1;
  if (n >= TtfPool::kMinIndexedPoints) {
    buckets = std::min<std::uint64_t>(
        std::bit_ceil(n) / TtfPool::kPointsPerBucket, std::uint64_t{1} << 16);
  }
  const std::uint64_t inv = (std::uint64_t{1} << 32) / period;
  const auto bucket = [&](Time x) { return (x * buckets * inv) >> 32; };
  std::uint32_t entry = 0;
  while (entry < n && bucket(pts[entry].dep) < bucket(tau)) ++entry;
  std::uint32_t end = entry;
  while (end < n && pts[end].dep < tau) ++end;
  return end - entry;
}

LayoutRow run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);
  const LegacyGraph legacy = LegacyGraph::build(net.graph);
  const TdGraph& g = net.graph;

  LayoutRow row;
  row.name = gen::preset_name(preset);
  row.legacy_bytes = legacy.memory_bytes();
  row.pooled_bytes = g.memory_bytes();

  // A hard CI gate sits on the measured ratios, so both phases use
  // interleaved best-of-blocks timing: legacy and pooled blocks alternate
  // (a slow system phase hits both sides) and each side keeps its fastest
  // block, which filters scheduler interruptions out of the estimate.
  constexpr int kBlocks = 5;

  const std::vector<Time> times = relax_times(g.period());
  const int relax_reps = options().smoke ? 2 : 4;
  const double evals =
      static_cast<double>(g.num_edges()) * times.size() * relax_reps;

  // Where the pooled eval's time goes besides the loads: the points its
  // scan steps over past the bucket entry, over the same grid (untimed).
  {
    std::uint64_t steps = 0, ttf_evals = 0;
    for (Time tau : times) {
      for (std::uint32_t ei = 0; ei < g.num_edges(); ++ei) {
        const std::uint32_t w = g.edge_word(ei);
        if (TdGraph::word_is_const(w)) continue;
        steps += scan_steps(g.ttfs().points(TdGraph::word_ttf(w)),
                            g.period(), tau);
        ++ttf_evals;
      }
    }
    row.scanned_points_per_eval =
        static_cast<double>(steps) /
        static_cast<double>(std::max<std::uint64_t>(ttf_evals, 1));
  }

  // Relax path: legacy chases AoS records into per-Ttf vectors and binary
  // searches; pooled streams the packed words into the indexed eval with
  // the lookahead prefetch.
  std::uint64_t legacy_sum = 0, pooled_sum = 0;
  double legacy_relax_best = 1e100, pooled_relax_best = 1e100;
  const std::uint32_t m = static_cast<std::uint32_t>(g.num_edges());
  for (int b = 0; b < kBlocks; ++b) {
    std::uint64_t lsum = 0, psum = 0;
    {
      Timer t;
      for (int r = 0; r < relax_reps; ++r) {
        for (Time tau : times) {
          for (const LegacyGraph::Edge& e : legacy.edges) {
            const Time a = legacy.arrival_via(e, tau);
            if (a != kInfTime) lsum += a;
          }
        }
      }
      legacy_relax_best = std::min(legacy_relax_best, t.elapsed_ms());
    }
    {
      Timer t;
      for (int r = 0; r < relax_reps; ++r) {
        for (Time tau : times) {
          for (std::uint32_t ei = 0; ei < m; ++ei) {
            if (ei + 1 < m) g.prefetch_edge_ttf(ei + 1);
            const Time a = g.arrival_by_word(g.edge_word(ei), tau);
            if (a != kInfTime) psum += a;
          }
        }
      }
      pooled_relax_best = std::min(pooled_relax_best, t.elapsed_ms());
    }
    legacy_sum = lsum;
    pooled_sum = psum;
  }
  row.legacy_relax_ns = legacy_relax_best * 1e6 / evals;
  row.pooled_relax_ns = pooled_relax_best * 1e6 / evals;
  if (legacy_sum != pooled_sum) {
    std::cerr << "FATAL: relax-path checksums diverge (legacy " << legacy_sum
              << ", pooled " << pooled_sum << ")\n";
    std::exit(1);
  }

  // One-to-all earliest arrival. Queries are tens of microseconds at bench
  // scale, so each timed block runs hundreds of them.
  const std::vector<StationId> sources =
      random_stations(net.tt, num_queries(), 424242);
  const Time dep = 8 * 3600;
  const int reps = std::max(1, 1024 / static_cast<int>(sources.size()));
  std::uint64_t legacy_arr = 0, pooled_arr = 0;
  std::uint64_t legacy_settled = 0, pooled_settled = 0;
  std::uint64_t legacy_pushed = 0, pooled_pushed = 0;
  LegacyTimeQuery lq(legacy);
  TimeQuery pq(net.tt, g);
  // Untimed verification passes: arrivals + settle/push accounting.
  for (StationId s : sources) {
    lq.run(s, dep);
    legacy_settled += lq.stats.settled;
    legacy_pushed += lq.stats.pushed;
    for (StationId v = 0; v < legacy.num_stations; ++v) {
      const Time a = lq.dist.get(v);
      if (a != kInfTime) legacy_arr += a;
    }
    pq.run(s, dep);
    pooled_settled += pq.stats().settled;
    pooled_pushed += pq.stats().pushed;
    for (StationId v = 0; v < g.num_stations(); ++v) {
      const Time a = pq.arrival_at(v);
      if (a != kInfTime) pooled_arr += a;
    }
  }
  double legacy_otoa_best = 1e100, pooled_otoa_best = 1e100;
  for (int b = 0; b < kBlocks; ++b) {
    {
      Timer t;
      for (int r = 0; r < reps; ++r) {
        for (StationId s : sources) lq.run(s, dep);
      }
      legacy_otoa_best = std::min(legacy_otoa_best, t.elapsed_ms());
    }
    {
      Timer t;
      for (int r = 0; r < reps; ++r) {
        for (StationId s : sources) pq.run(s, dep);
      }
      pooled_otoa_best = std::min(pooled_otoa_best, t.elapsed_ms());
    }
  }
  row.legacy_otoa_ms = legacy_otoa_best / (reps * sources.size());
  row.pooled_otoa_ms = pooled_otoa_best / (reps * sources.size());
  row.accounting_match = legacy_arr == pooled_arr &&
                         legacy_settled == pooled_settled &&
                         legacy_pushed == pooled_pushed;
  if (!row.accounting_match) {
    std::cerr << "FATAL: one-to-all accounting diverges (settled "
              << legacy_settled << " vs " << pooled_settled << ", pushed "
              << legacy_pushed << " vs " << pooled_pushed << ", arrivals "
              << legacy_arr << " vs " << pooled_arr << ")\n";
    std::exit(1);
  }

  TablePrinter table({"workload", "legacy", "pooled", "spd-up"});
  table.add_row({"relax [ns/edge]", fixed(row.legacy_relax_ns, 2),
                 fixed(row.pooled_relax_ns, 2), fixed(row.relax_speedup(), 2)});
  table.add_row({"scanned points/eval", "",
                 fixed(row.scanned_points_per_eval, 3), ""});
  table.add_row({"one-to-all [ms]", fixed(row.legacy_otoa_ms, 3),
                 fixed(row.pooled_otoa_ms, 3), fixed(row.otoa_speedup(), 2)});
  table.add_row({"graph [bytes]", format_bytes(row.legacy_bytes),
                 format_bytes(row.pooled_bytes),
                 fixed(static_cast<double>(row.legacy_bytes) /
                           static_cast<double>(row.pooled_bytes),
                       2)});
  table.print();
  return row;
}

std::string to_json(const std::vector<LayoutRow>& rows) {
  std::vector<double> otoa, relax;
  for (const LayoutRow& r : rows) {
    otoa.push_back(r.otoa_speedup());
    relax.push_back(r.relax_speedup());
  }
  JsonWriter w = bench_json_doc(
      "bench_layout",
      "legacy AoS + binary-search TTFs vs pooled SoA + indexed eval");
  w.key("networks").begin_array();
  for (const LayoutRow& r : rows) {
    w.begin_object()
        .field("name", r.name)
        .field("relax_legacy_ns_per_edge", r.legacy_relax_ns, 3)
        .field("relax_pooled_ns_per_edge", r.pooled_relax_ns, 3)
        .field("relax_speedup", r.relax_speedup(), 3)
        .field("scanned_points_per_eval", r.scanned_points_per_eval, 4)
        .field("one_to_all_legacy_ms", r.legacy_otoa_ms, 4)
        .field("one_to_all_pooled_ms", r.pooled_otoa_ms, 4)
        .field("one_to_all_speedup", r.otoa_speedup(), 3)
        .field("memory_bytes_legacy", r.legacy_bytes)
        .field("memory_bytes_pooled", r.pooled_bytes)
        .field("accounting_match", r.accounting_match)
        .end_object();
  }
  w.end_array();
  w.field("relax_speedup_geomean", geomean(relax), 3);
  w.field("layout_speedup", geomean(otoa), 3);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);

  std::cout << "Graph layout: seed AoS edges + per-function TTF vectors vs "
               "pooled SoA + bucket-indexed eval\n";

  std::vector<gen::Preset> presets;
  if (options().smoke) {
    presets = {gen::Preset::kOahuLike, gen::Preset::kGermanyLike};
  } else {
    presets.assign(std::begin(gen::kAllPresets), std::end(gen::kAllPresets));
  }

  std::vector<LayoutRow> rows;
  for (gen::Preset p : presets) rows.push_back(run_network(p));
  if (options().json) emit_json(to_json(rows));
  return 0;
}
