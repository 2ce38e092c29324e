// Throughput-mode multi-query engine: K overlay time queries per run()
// call, extended to every node by one cross-lane down-sweep
// (docs/architecture.md "Throughput execution").
//
// Each lane IS a per-query OverlayTimeQueryT over its own workspace-
// resident label state: run() runs the lanes' core ascents one after the
// other, so every lane's results AND QueryStats equal a standalone run of
// the same query, in every queue policy (tests/multi_query_test.cpp proves
// this differentially). Lanes add nothing to the ascent: a shortcut fan
// shares its lane's pop key, and one fan at one entry time is cheaper to
// evaluate than the same edges regrouped across lanes with mixed entry
// times (measured).
//
// Cross-lane batching pays where entry times are unavoidably mixed and the
// order is queue-less: settle_contracted_batch, the down-sweep, answers
// every down-edge for all K lanes with one arrival_tn call.
//
// All lane state (the lanes' epoch arrays and queues, the sweep's matrix)
// is workspace-resident: a warm run() + settle_contracted_batch() of the
// same shape allocates nothing (multi_query_test's operator-new guard
// covers it).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "algo/counters.hpp"
#include "algo/overlay_query.hpp"
#include "algo/queue_policy.hpp"
#include "algo/relax_batch.hpp"
#include "algo/workspace.hpp"
#include "graph/overlay_graph.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

/// One query of a batch; target kInvalidStation runs one-to-all.
struct BatchQuery {
  StationId source = kInvalidStation;
  Time departure = 0;
  StationId target = kInvalidStation;
};

/// Template over the scalar-time queue policy; definitions in
/// multi_query.cpp instantiate the two shipped policies.
template <typename Queue = TimeBinaryQueue>
class MultiQueryOverlayTimeEngineT {
 public:
  MultiQueryOverlayTimeEngineT(const Timetable& tt, const TdGraph& g,
                               const OverlayGraph& ov,
                               QueryWorkspace* ws = nullptr);

  /// Runs all queries to completion. Results stay valid until the next
  /// run; lane q of the accessors below corresponds to queries[q].
  void run(std::span<const BatchQuery> queries);

  /// Extends lane q's full (no-target) run to every contracted node — the
  /// lane engine's own rank-descending down-sweep. After it,
  /// arrival_at_node(q, v) matches the flat engine at ALL nodes.
  void settle_contracted(std::size_t q);

  /// The cross-lane down-sweep: settle_contracted for EVERY lane at once
  /// (all lanes must be full runs). The sweep order is fixed and
  /// queue-less, so the lanes become the vector dimension: labels are
  /// transposed into node-major rows and every down-edge is answered for
  /// all K lanes with one arrival_tn call (one metadata load per edge,
  /// K entry times) — the widest, steadiest kernel feed in the engine;
  /// call widths land in batch_stats(). Per-lane results and accounting
  /// are byte-identical to K settle_contracted(q) calls: same edge order,
  /// same strict-min tie-breaking, bit-identical kernels. After the
  /// sweep, the accessors below serve labels straight from the node-major
  /// matrix (no scatter back into the lanes' arrays) until the next run.
  /// Idempotent, and settle_contracted(q) is a no-op after it; call it
  /// instead of, not after, per-lane settle_contracted(q) calls.
  void settle_contracted_batch();

  std::size_t num_queries() const { return queries_.size(); }
  Time arrival_at(std::size_t q, StationId s) const {
    return arrival_at_node(q, ov_.station_node(s));
  }
  Time arrival_at_node(std::size_t q, NodeId v) const {
    if (swept_) return trans_dist_[std::size_t{v} * kp_ + q];
    return lanes_[q]->arrival_at_node(v);
  }
  NodeId parent(std::size_t q, NodeId v) const {
    if (swept_) {
      const std::uint32_t i = ov_.down_pos(v);
      if (i != OverlayGraph::kNoDownPos) {
        const NodeId p = sweep_parent_[std::size_t{i} * kp_ + q];
        // An unreached contracted node keeps its (untouched) lane value.
        if (p != kInvalidNode) return p;
      }
    }
    return lanes_[q]->parent(v);
  }
  std::uint32_t parent_edge(std::size_t q, NodeId v) const {
    return lanes_[q]->parent_edge(v);
  }
  const QueryStats& stats(std::size_t q) const { return stats_[q]; }
  /// Lane counts of the batched sweep's arrival_tn calls (zeroed by run()).
  const BatchStats& batch_stats() const { return batch_stats_; }

 private:
  using Lane = OverlayTimeQueryT<Queue>;

  const Timetable& tt_;
  const TdGraph& g_;
  const OverlayGraph& ov_;
  QueryWorkspace* ws_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // grown to the max K seen
  // Per lane: its query, and its stats (the lane engine's, plus the
  // batched sweep's relaxations, which never touch the lane engine).
  std::vector<BatchQuery, ArenaAllocator<BatchQuery>> queries_;
  std::vector<QueryStats, ArenaAllocator<QueryStats>> stats_;
  BatchStats batch_stats_;

  // settle_contracted_batch state: node-major transposed labels
  // (lane-padded rows of kp_ = K rounded up to 8), per-edge row buffers,
  // per-contracted-node winning tails, per-lane relax counters, and the
  // is-some-lane's-source node mask for the board-discount fix-up. While
  // swept_ is set (sweep done, no newer run), trans_dist_/sweep_parent_
  // ARE the result surface — the sweep never scatters back into the
  // lanes; the node -> sweep-position map the accessors need is the
  // overlay's own down_pos() view.
  std::vector<Time, ArenaAllocator<Time>> trans_dist_;
  std::vector<Time, ArenaAllocator<Time>> row_ts_, row_out_, row_best_;
  std::vector<NodeId, ArenaAllocator<NodeId>> row_best_tail_;
  std::vector<NodeId, ArenaAllocator<NodeId>> sweep_parent_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> relaxed_cnt_;
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> src_mask_;
  std::size_t kp_ = 0;
  bool swept_ = false;
};

using MultiQueryOverlayTimeEngine = MultiQueryOverlayTimeEngineT<>;

}  // namespace pconn
