#include "algo/multi_query.hpp"

#include <cassert>

namespace pconn {

MultiQueryOverlayTimeEngine::MultiQueryOverlayTimeEngine(
    const Timetable& tt, const TdGraph& g, const OverlayGraph& ov,
    QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      ov_(ov),
      ws_(ws),
      queries_(ArenaAllocator<BatchQuery>(scratch_alloc(ws))),
      stats_(ArenaAllocator<QueryStats>(scratch_alloc(ws))),
      trans_dist_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_ts_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_out_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_best_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_best_tail_(ArenaAllocator<NodeId>(scratch_alloc(ws))),
      sweep_parent_(ArenaAllocator<NodeId>(scratch_alloc(ws))),
      relaxed_cnt_(ArenaAllocator<std::uint32_t>(scratch_alloc(ws))),
      src_mask_(ArenaAllocator<std::uint8_t>(scratch_alloc(ws))) {
  // Lanes are built lazily; reject a foreign overlay up front, like the
  // per-query engine.
  require_overlay_matches(tt, g, ov);
}

void MultiQueryOverlayTimeEngine::run(std::span<const BatchQuery> queries) {
  batch_stats_.reset();
  swept_ = false;  // lane arrays are the result surface again
  while (lanes_.size() < queries.size()) {
    lanes_.push_back(std::make_unique<Lane>(tt_, g_, ov_, ws_));
  }
  queries_.assign(queries.begin(), queries.end());
  stats_.resize(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    Lane& lane = *lanes_[qi];
    const BatchQuery& q = queries[qi];
    assert(q.source < tt_.num_stations());
    lane.run(q.source, q.departure, q.target);
    stats_[qi] = lane.stats();
  }
}

void MultiQueryOverlayTimeEngine::settle_contracted(std::size_t q) {
  if (swept_) return;  // the batched sweep already extended every lane
  lanes_[q]->settle_contracted();
  stats_[q] = lanes_[q]->stats();
}

void MultiQueryOverlayTimeEngine::settle_contracted_batch() {
  const std::size_t k = queries_.size();
  if (k == 0 || swept_) return;  // a second sweep would only re-count
  const std::size_t kp = (k + 7) & ~std::size_t{7};  // padded lane stride
  const std::size_t n = ov_.num_nodes();
  const TtfPool& pool = ov_.ttfs();

  // Transpose every lane's labels into node-major rows so a down-edge's
  // entry times are one contiguous load; padding lanes stay unreachable.
  // Tiled: a block of rows stays write-hot across all lanes, and each
  // lane's epoch/value arrays stream sequentially (EpochArray raw views).
  trans_dist_.resize(n * kp);
  for (std::size_t j = 0; j < k; ++j) {
    assert(queries_[j].target == kInvalidStation &&
           "settle_contracted_batch needs full (no-target) runs");
  }
  constexpr std::size_t kTile = 16;
  Time* const __restrict trans = trans_dist_.data();
  for (std::size_t vb = 0; vb < n; vb += kTile) {
    const std::size_t ve = vb + kTile < n ? vb + kTile : n;
    for (std::size_t j = 0; j < k; ++j) {
      const EpochArray<Time>& dist = lanes_[j]->labels();
      const Time* const __restrict vals = dist.values_data();
      const std::uint32_t* const __restrict eps = dist.epochs_data();
      const std::uint32_t ep = dist.epoch();
      for (std::size_t v = vb; v < ve; ++v) {
        trans[v * kp + j] = eps[v] == ep ? vals[v] : kInfTime;
      }
    }
    for (std::size_t v = vb; v < ve; ++v) {
      for (std::size_t j = k; j < kp; ++j) trans[v * kp + j] = kInfTime;
    }
  }
  // Nodes that are some lane's source need the per-lane board-discount
  // fix-up (Lane::source_arrival) after the shared kernel call.
  src_mask_.assign(n, 0);
  for (std::size_t j = 0; j < k; ++j) {
    src_mask_[ov_.station_node(queries_[j].source)] = 1;
  }

  row_ts_.resize(kp);
  row_out_.resize(kp);
  row_best_.resize(kp);
  row_best_tail_.resize(kp);
  relaxed_cnt_.assign(kp, 0);
  sweep_parent_.resize(ov_.num_contracted() * kp);

  // Raw restrict-qualified views: the row buffers never alias each other
  // or the label matrix, and telling the compiler so lets every per-lane
  // loop below vectorize.
  Time* const __restrict ts_buf = row_ts_.data();
  Time* const __restrict out_buf = row_out_.data();
  Time* const __restrict best = row_best_.data();
  NodeId* const __restrict best_tail = row_best_tail_.data();
  std::uint32_t* const __restrict rcnt = relaxed_cnt_.data();
  for (std::size_t i = 0; i < ov_.num_contracted(); ++i) {
    const NodeId v = ov_.down_node(i);
    for (std::size_t j = 0; j < kp; ++j) best[j] = kInfTime;
    for (std::size_t j = 0; j < kp; ++j) best_tail[j] = kInvalidNode;
    for (std::uint32_t e = ov_.down_begin(i); e < ov_.down_end(i); ++e) {
      const NodeId tail = ov_.down_tail(e);
      const Time* const __restrict ts =
          trans_dist_.data() + std::size_t{tail} * kp;
      // Pass 1 (fused): per-lane relax accounting (a lane relaxes the edge
      // iff its tail is reachable — the per-query protocol) and the
      // clamped entry times the kernel's signed-lane contract needs.
      // Padding lanes are unreachable, so they contribute nothing.
      std::uint32_t cnt = 0;
      for (std::size_t j = 0; j < kp; ++j) {
        const std::uint32_t live = ts[j] != kInfTime;
        rcnt[j] += live;
        cnt += live;
        ts_buf[j] = live ? ts[j] : 0;
      }
      if (cnt == 0) continue;
      const std::uint32_t w = ov_.down_word(e);
      if (w & TtfPool::kConstFlag) {
        const Time c = w & ~TtfPool::kConstFlag;
        for (std::size_t j = 0; j < kp; ++j) out_buf[j] = ts_buf[j] + c;
      } else {
        // One metadata load, kp entry times: the widest arrival_tn feed
        // in the engine.
        pool.arrival_tn(w, ts_buf, kp, out_buf);
        batch_stats_.record(cnt);
      }
      if (src_mask_[tail]) {
        for (std::size_t j = 0; j < k; ++j) {
          if (ov_.station_node(queries_[j].source) == tail &&
              ts[j] != kInfTime) {
            out_buf[j] = lanes_[j]->source_arrival(w, ts[j]);
          }
        }
      }
      // Pass 2 (fused): dead lanes masked out (their row_out_ is garbage),
      // strict-min in edge order — identical tie-breaking to the
      // per-query sweep.
      for (std::size_t j = 0; j < kp; ++j) {
        const bool upd = ts[j] != kInfTime && out_buf[j] < best[j];
        best[j] = upd ? out_buf[j] : best[j];
        best_tail[j] = upd ? tail : best_tail[j];
      }
    }
    Time* const __restrict dst = trans_dist_.data() + std::size_t{v} * kp;
    for (std::size_t j = 0; j < kp; ++j) dst[j] = best[j];
    NodeId* const __restrict par = sweep_parent_.data() + i * kp;
    for (std::size_t j = 0; j < kp; ++j) par[j] = best_tail[j];
  }

  for (std::size_t j = 0; j < k; ++j) {
    stats_[j].relaxed += relaxed_cnt_[j];
  }
  // No scatter back into the lanes: trans_dist_/sweep_parent_ become the
  // result surface (the accessors read them while swept_ holds), keyed by
  // the overlay's precomputed down_pos() map.
  kp_ = kp;
  swept_ = true;
}

}  // namespace pconn
