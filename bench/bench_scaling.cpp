// Scale-sensitivity sweep: how the CS-vs-LC contest evolves with network
// size. The paper's full-size inputs (up to 5M elementary connections) put
// LC at a 1.3-2.9x time disadvantage; at bench scale the constant factors
// still favor LC's cache-friendly merges. This sweep shows the trend: LC's
// per-query work (label points) grows faster than CS's settled connections
// as networks grow, because node labels get re-popped and merged
// repeatedly while connection-setting touches each (node, connection) pair
// at most once.
//
// --overlay adds the thread-scaling table (the paper's Table 1 shape) for
// BOTH flat and overlay-routed SPCS at each scale, so one artifact shows
// how the paper's parallelization and the contraction overlay compose as
// networks grow.
#include <cstring>
#include <iostream>

#include "algo/contraction.hpp"
#include "algo/lc_profile.hpp"
#include "algo/parallel_spcs.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

void run_scale(gen::Preset preset, double s, bool overlay) {
  Timetable tt = gen::make_preset(preset, s, 1);
  TdGraph g = TdGraph::build(tt);
  const int queries = std::max(3, num_queries() / 4);
  std::vector<StationId> sources = random_stations(tt, queries, 555);

  ParallelSpcsOptions opt;
  opt.threads = 1;
  ParallelSpcs spcs(tt, g, opt);
  LcProfileQuery lc(tt, g);
  spcs.one_to_all(sources[0]);  // warm allocations out of the timing
  lc.run(sources[0]);

  QueryStats cs_total, lc_total;
  Timer t1;
  for (StationId src : sources) cs_total += spcs.one_to_all(src).stats;
  double cs_ms = t1.elapsed_ms() / queries;
  Timer t2;
  for (StationId src : sources) {
    lc.run(src);
    lc_total += lc.stats();
  }
  double lc_ms = t2.elapsed_ms() / queries;

  std::cout << "  scale " << fixed(s, 2) << ": " << format_count(tt.num_stations())
            << " stations, " << format_count(tt.num_connections())
            << " conns | CS " << format_count(cs_total.settled / queries)
            << " settled, " << fixed(cs_ms, 1) << " ms | LC "
            << format_count(lc_total.label_points / queries) << " points, "
            << fixed(lc_ms, 1) << " ms | LC/CS work "
            << fixed(static_cast<double>(lc_total.label_points) /
                         static_cast<double>(cs_total.settled),
                     2)
            << "x, time " << fixed(lc_ms / cs_ms, 2) << "x\n";

  if (!overlay) return;

  // Thread-scaling rows for flat and overlay-routed SPCS on this network.
  const OverlayGraph ov = contract_graph(tt, g);
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelSpcsOptions po;
    po.threads = threads;
    ParallelSpcs flat(tt, g, po);
    ParallelSpcs over(tt, g, ov, po);
    OneToAllResult buf;
    flat.one_to_all_into(sources[0], buf);  // warm-up
    over.one_to_all_into(sources[0], buf);
    Timer tf;
    for (StationId src : sources) flat.one_to_all_into(src, buf);
    const double flat_ms = tf.elapsed_ms() / queries;
    Timer to;
    for (StationId src : sources) over.one_to_all_into(src, buf);
    const double over_ms = to.elapsed_ms() / queries;
    std::cout << "      p=" << threads << ": flat SPCS " << fixed(flat_ms, 1)
              << " ms | overlay SPCS " << fixed(over_ms, 1) << " ms | spd-up "
              << fixed(flat_ms / over_ms, 2) << "x\n";
  }
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  // Single flag, scanned by hand (this bench predates parse_bench_args and
  // keeps its plain-text reporting).
  bool overlay = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overlay") == 0) {
      overlay = true;
    } else {
      std::cerr << "unknown argument: " << argv[i] << " (only --overlay)\n";
      return 2;
    }
  }
  std::cout << "Scale sweep: CS vs LC as networks grow (paper-size inputs "
               "are ~10-20x the 1.0 scale)\n";
  if (overlay) {
    std::cout << "(--overlay: per-scale thread rows for flat vs "
                 "overlay-routed SPCS)\n";
  }
  for (pconn::gen::Preset p :
       {pconn::gen::Preset::kLosAngelesLike, pconn::gen::Preset::kEuropeLike}) {
    std::cout << "\n== " << pconn::gen::preset_name(p) << " ==\n";
    for (double s : {0.25, 0.5, 1.0, 2.0}) {
      pconn::bench::run_scale(p, s, overlay);
    }
  }
  return 0;
}
