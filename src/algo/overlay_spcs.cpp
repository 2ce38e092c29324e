#include "algo/overlay_spcs.hpp"

#include <cassert>

#include "graph/overlay_graph.hpp"
#include "util/timer.hpp"

namespace pconn {

void ParallelSpcs::settle_contracted() {
  assert(ov_ && "settle_contracted needs an overlay-routed ParallelSpcs");
  assert(full_run_ && "settle_contracted needs a full (no-target) run");
  if (swept_) return;  // idempotent: a re-sweep would double relax counts
  Timer t;
  pool_.run([&](std::size_t th) { sweep_partition(th); });
  sweep_ms_ = t.elapsed_ms();
  swept_ = true;
}

void ParallelSpcs::sweep_partition(std::size_t th) {
  SpcsThreadState& st = states_[th];
  const std::size_t W = st.width();
  if (W == 0) return;

  // The thread's label matrix is node-major (slot v * W + li): each node's
  // W connection lanes are one contiguous row, so the sweep extends the
  // matrix in place, with no transposed copy.
  EpochArray<Time>& arr = st.label_matrix();
  Time* const __restrict vals = arr.values_data();
  std::uint32_t* const __restrict eps = arr.epochs_data();
  const std::uint32_t ep = arr.epoch();

  SweepScratch& sc = *sweep_[th];
  sc.raw.resize(W);
  sc.ts.resize(W);
  sc.out.resize(W);
  sc.best.resize(W);
  sc.rcnt.assign(W, 0);
  Time* const __restrict raw = sc.raw.data();
  Time* const __restrict ts_buf = sc.ts.data();
  Time* const __restrict out_buf = sc.out.data();
  Time* const __restrict best = sc.best.data();
  std::uint32_t* const __restrict rcnt = sc.rcnt.data();

  const OverlayGraph& ov = *ov_;
  const TtfPool& pool = ov.ttfs();
  for (std::size_t i = 0; i < ov.num_contracted(); ++i) {
    const NodeId v = ov.down_node(i);
    for (std::size_t j = 0; j < W; ++j) best[j] = kInfTime;
    for (std::uint32_t e = ov.down_begin(i); e < ov.down_end(i); ++e) {
      const NodeId tail = ov.down_tail(e);
      const std::size_t base = static_cast<std::size_t>(tail) * W;
      // Pass 1 (fused): per-lane relax accounting (a lane relaxes the edge
      // iff its tail label is finite — the flat sweep protocol) and the
      // clamped entry times the kernel's signed-lane contract needs. A
      // label can be epoch-stamped yet infinite (self-pruned): dead too.
      std::uint32_t cnt = 0;
      for (std::size_t j = 0; j < W; ++j) {
        const Time t0 = eps[base + j] == ep ? vals[base + j] : kInfTime;
        const std::uint32_t live = t0 != kInfTime;
        raw[j] = t0;
        rcnt[j] += live;
        cnt += live;
        ts_buf[j] = live ? t0 : 0;
      }
      if (cnt == 0) continue;
      const std::uint32_t w = ov.down_word(e);
      if (w & TtfPool::kConstFlag) {
        const Time c = w & ~TtfPool::kConstFlag;
        for (std::size_t j = 0; j < W; ++j) out_buf[j] = ts_buf[j] + c;
      } else {
        pool.arrival_tn(w, ts_buf, W, out_buf);
      }
      // No source fix-up, unlike the station-sourced engines: SPCS sources
      // are route nodes, whose down-edge TTFs carry no folded board cost.
      // Pass 2 (fused): dead lanes masked out, strict-min in edge order.
      for (std::size_t j = 0; j < W; ++j) {
        const bool upd = raw[j] != kInfTime && out_buf[j] < best[j];
        best[j] = upd ? out_buf[j] : best[j];
      }
    }
    // Fold, don't overwrite: the ascent can settle contracted nodes on its
    // way up (sources are contracted), and those labels are achievable
    // arrivals the sweep must not discard.
    const std::size_t base_v = static_cast<std::size_t>(v) * W;
    for (std::size_t j = 0; j < W; ++j) {
      const Time a = eps[base_v + j] == ep ? vals[base_v + j] : kInfTime;
      const Time m = best[j] < a ? best[j] : a;
      if (m != kInfTime) {
        vals[base_v + j] = m;
        eps[base_v + j] = ep;
      }
    }
  }

  QueryStats& stats = st.stats_mutable();
  for (std::size_t j = 0; j < W; ++j) stats.relaxed += rcnt[j];
}

}  // namespace pconn
