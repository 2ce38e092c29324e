// SPCS — the Self-Pruning Connection-Setting profile search
// (paper Section 3), the system's core contribution.
//
// One SpcsThreadState runs the sequential algorithm over a contiguous range
// [lo, hi) of conn(S). Running it with the full range reproduces the
// sequential algorithm; the parallel driver (parallel_spcs.hpp) gives each
// thread its own state and partition range, which keeps self-pruning and
// all labels thread-local exactly as in the paper. The served
// station-to-station path cuts each thread's range further, in time: it
// runs chunks of at most kSpcsChunk connections one after another through
// the same warm state (run_chunked_on), so a state's scratch is bounded by
// |V| x kSpcsChunk slots instead of |V| x |conn(S)|.
//
// Queue items are (node, connection) pairs keyed by *arrival time*; for
// every connection index the search is label-setting ("connection-setting").
// Self-pruning (Theorem 1) discards a popped item (v, i) when a
// later-departing connection j > i already settled v, since j then arrives
// no later while leaving later. The stopping criterion (Theorem 2) and the
// distance-table rules (Theorems 3/4) plug in through a SettleHook.
//
// A settled item relaxes its edges one at a time, each TTF evaluated right
// before its queue update, on the flat graph and the overlay alike. This is
// the only relax body: a phased gather -> eval -> commit body measured
// slower on the overlay core (docs/architecture.md "Batch relaxation").
//
// The priority queue is the paper's binary heap (SpcsQueue,
// algo/queue_policy.hpp): addressable, so an improvement decreases the
// queued key in place and every pop settles its item.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "algo/counters.hpp"
#include "algo/queue_policy.hpp"
#include "algo/workspace.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/epoch_array.hpp"

namespace pconn {

/// Connections per run on the served station-to-station path
/// (SpcsThreadState::run_chunked_on); the width every thread state's
/// scratch is sized for, so one worker's SPCS scratch is |V| x kSpcsChunk
/// slots. bench_partition's chunk sweep measures the choice.
inline constexpr std::uint32_t kSpcsChunk = 32;

struct SpcsOptions {
  bool self_pruning = true;
  /// Per-thread stopping criterion; only effective with a target station.
  bool stopping_criterion = true;
};

/// Verdict of a SettleHook for a popped-and-settled queue item.
enum class SettleAction {
  kRelax,       // normal processing
  kPruneNode,   // Theorem 3: do not relax this node for this connection
  kFinishConn,  // Theorem 4: optimal arrival at the target is known; stop
                // this connection entirely (the hook records the arrival)
};

/// No-op hook: plain SPCS.
struct NoHook {
  /// Whether on_settle should be invoked at all.
  static constexpr bool kWantsSettle = false;
  /// Whether the engine must maintain "has a transfer-station ancestor"
  /// bits and per-connection counts of queue items without one (needed for
  /// the gamma lower bound of target pruning, Theorem 4).
  static constexpr bool kWantsAncestors = false;
  bool is_transfer(StationId) const { return false; }
  SettleAction on_settle(NodeId, ConnIndex, Time, bool) {
    return SettleAction::kRelax;
  }
};

class SpcsThreadState {
 public:
  SpcsThreadState() : SpcsThreadState(nullptr) {}
  /// Places all scratch (queue, label matrices, epoch arrays) in the
  /// workspace's arena; ws == nullptr keeps the plain-heap behaviour. The
  /// state must not outlive the workspace.
  explicit SpcsThreadState(QueryWorkspace* ws)
      : heap_(scratch_alloc(ws)),
        arr_(scratch_alloc(ws)),
        maxconn_(scratch_alloc(ws)),
        anc_(scratch_alloc(ws)),
        noanc_(ArenaAllocator<std::uint32_t>(scratch_alloc(ws))),
        done_(ArenaAllocator<std::uint8_t>(scratch_alloc(ws))) {}

  /// Queue keys are composite: (arrival << kKeyShift) | (W - 1 - li).
  /// Arrival-time ties are broken towards the HIGHER connection index —
  /// under the FIFO property a later connection can only arrive *equally*
  /// early, so ties are precisely where self-pruning fires, and popping the
  /// later connection first lets it prune all earlier ones at that node.
  static constexpr unsigned kKeyShift = kSpcsKeyShift;
  /// Arrival label arr(v, i) for the local connection index i in [0, width):
  /// the settled arrival time, or kInfTime when unreached or pruned.
  Time arrival(NodeId v, std::uint32_t local) const {
    return arr_.get(static_cast<std::size_t>(v) * width_ + local);
  }

  std::uint32_t width() const { return width_; }
  const QueryStats& stats() const { return stats_; }

  /// The (node x width) label matrix itself — slot v * width() + li, valid
  /// iff stamped with the current epoch. The rows are already node-major,
  /// which is exactly the surface the overlay driver's batched down-sweep
  /// wants: it extends the matrix in place (algo/overlay_spcs.cpp) and
  /// adds the sweep's per-lane relax accounting through stats_mutable().
  EpochArray<Time>& label_matrix() { return arr_; }
  const EpochArray<Time>& label_matrix() const { return arr_; }
  QueryStats& stats_mutable() { return stats_; }

  /// Runs SPCS for connections [lo, hi) of `conns` (= conn(S), sorted by
  /// departure). If `target` is a valid station, the stopping criterion is
  /// applied (per thread) and relaxing stops at the target's station node.
  template <typename Hook>
  void run(const TdGraph& g, const Timetable& tt,
           std::span<const Connection> conns, std::uint32_t lo,
           std::uint32_t hi, StationId target, const SpcsOptions& opt,
           Hook& hook) {
    run_on(g, g, tt, conns, lo, hi, target, opt, hook);
  }

  /// The served station-to-station form of run_on(): walks [lo, hi) in
  /// chunks of at most `chunk` connections through this one warm state and,
  /// after each chunk, writes (dep, arrival at `target`) into raw[i] for
  /// every global connection index i of the chunk. This is the paper's
  /// partition (Section 3.2) applied in time: a chunk is a range with its
  /// own labels, self-pruning and stopping criterion (Theorems 1-2 hold per
  /// range), so reducing raw yields the unchunked profile byte for byte.
  /// Scratch stays |V| x max(chunk, kSpcsChunk) whatever |conn(S)| is;
  /// stats() is summed over the chunks.
  template <typename GraphT>
  void run_chunked_on(const GraphT& g, const TdGraph& flat,
                      const Timetable& tt, std::span<const Connection> conns,
                      std::uint32_t lo, std::uint32_t hi, StationId target,
                      const SpcsOptions& opt, ProfilePoint* raw,
                      std::uint32_t chunk = kSpcsChunk) {
    assert(chunk > 0 && target != kInvalidStation);
    const NodeId tn = g.station_node(target);
    QueryStats total{};
    NoHook hook;
    // At least one run, so an empty range still sizes the scratch.
    std::uint32_t c = lo;
    do {
      const std::uint32_t e = hi - c > chunk ? c + chunk : hi;
      run_on(g, flat, tt, conns, c, e, target, opt, hook);
      for (std::uint32_t i = c; i < e; ++i) {
        raw[i] = {conns[i].dep, arrival(tn, i - c)};
      }
      total += stats_;
      c = e;
    } while (c < hi);
    stats_ = total;
  }

  /// Graph-generalized body of run(): the settle loop streams `g` (TdGraph
  /// or OverlayGraph — same SoA shape), while `flat` resolves the pieces
  /// only the flat graph knows: a connection's departure route node (the
  /// initial pushes; node ids are shared between the two graphs) and
  /// station_of for ancestor-tracking hooks. The overlay driver
  /// (algo/overlay_spcs.hpp) runs the ascent through this entry point;
  /// run_on(g, g, ...) is the flat engine, byte for byte.
  template <typename GraphT, typename Hook>
  void run_on(const GraphT& g, const TdGraph& flat, const Timetable& tt,
              std::span<const Connection> conns, std::uint32_t lo,
              std::uint32_t hi, StationId target, const SpcsOptions& opt,
              Hook& hook) {
    assert(lo <= hi && hi <= conns.size());
    stats_ = QueryStats{};
    const std::uint32_t W = hi - lo;
    width_ = W;
    // Width-dependent scratch is sized for at least kSpcsChunk lanes, so
    // every chunked run (run_chunked_on) fits the first sizing exactly and
    // a mix of narrow and wide sources never regrows the arena.
    const std::uint32_t lanes = std::max(W, kSpcsChunk);
    const std::size_t slots = static_cast<std::size_t>(g.num_nodes()) * lanes;
    if (heap_.capacity() < slots) heap_.reset_capacity(slots);
    arr_.ensure_and_clear(slots, kInfTime);
    if (opt.self_pruning) maxconn_.ensure_and_clear(g.num_nodes(), -1);
    if constexpr (Hook::kWantsAncestors) {
      anc_.ensure_and_clear(slots, 0);
      noanc_.reserve(lanes);
      noanc_.assign(W, 0);
    }
    done_.reserve(lanes);
    done_.assign(W, 0);

    const NodeId target_node =
        target == kInvalidStation ? kInvalidNode : g.station_node(target);

    assert(slots <= std::numeric_limits<std::uint32_t>::max());
    assert(W < (1u << kKeyShift));
    const auto make_key = [W](Time arr, std::uint32_t li) {
      return (static_cast<std::uint64_t>(arr) << kKeyShift) | (W - 1 - li);
    };
    for (std::uint32_t li = 0; li < W; ++li) {
      const Connection& c = conns[lo + li];
      NodeId r = flat.departure_node(tt, c);
      heap_.push(static_cast<std::uint32_t>(
                     static_cast<std::uint64_t>(r) * W + li),
                 make_key(c.dep, li));
      stats_.pushed++;
      if constexpr (Hook::kWantsAncestors) noanc_[li]++;
    }

    std::int64_t tm = -1;  // stopping criterion: max conn index settled at T

    while (!heap_.empty()) {
      auto [id, packed] = heap_.pop();
      const Time key = static_cast<Time>(packed >> kKeyShift);
      const NodeId v = static_cast<NodeId>(id / W);
      const std::uint32_t li = static_cast<std::uint32_t>(id % W);
      stats_.settled++;

      bool had_anc = true;
      if constexpr (Hook::kWantsAncestors) {
        had_anc = anc_.get(id) != 0;
        if (!had_anc) noanc_[li]--;
      }

      arr_.set(id, key);  // marks (v, li) settled

      if (done_[li]) {  // connection finished by target pruning
        stats_.table_pruned++;
        arr_.set(id, kInfTime);
        continue;
      }
      if (target_node != kInvalidNode && opt.stopping_criterion &&
          static_cast<std::int64_t>(li) <= tm) {
        stats_.stop_pruned++;
        arr_.set(id, kInfTime);
        continue;
      }
      if (opt.self_pruning) {
        if (static_cast<std::int32_t>(li) <= maxconn_.get(v)) {
          stats_.self_pruned++;
          arr_.set(id, kInfTime);
          continue;
        }
        maxconn_.set(v, static_cast<std::int32_t>(li));
      }
      if (v == target_node) {
        // arr(T, li) is final; paths through T never improve arrivals at T.
        tm = std::max<std::int64_t>(tm, li);
        if (opt.stopping_criterion && tm + 1 == W) {
          heap_.clear();
          break;
        }
        continue;
      }
      if constexpr (Hook::kWantsSettle) {
        bool gamma_valid = false;
        if constexpr (Hook::kWantsAncestors) gamma_valid = noanc_[li] == 0;
        SettleAction action = hook.on_settle(v, li, key, gamma_valid);
        if (action == SettleAction::kPruneNode) {
          stats_.table_pruned++;
          continue;
        }
        if (action == SettleAction::kFinishConn) {
          done_[li] = 1;
          continue;
        }
      }

      // Relax over the SoA edge block of v: heads stream independently of
      // the packed ttf-or-weight words and the settled/self-pruning tests
      // run on the streamed head before the (expensive) TTF evaluation.
      const std::uint32_t eb = g.edge_begin(v);
      const std::uint32_t ee = g.edge_end(v);
      const NodeId* const heads = g.heads_data();
      const std::uint32_t* const words = g.words_data();

      for (std::uint32_t ei = eb; ei < ee; ++ei) {
        if (ei + 1 < ee) {
          arr_.prefetch(static_cast<std::size_t>(heads[ei + 1]) * W + li);
          g.prefetch_edge_ttf(ei + 1);
        }
        const NodeId head = heads[ei];
        const std::uint32_t wid = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(head) * W + li);
        if (arr_.touched(wid)) continue;  // already settled for li
        const Time t = g.arrival_by_word(words[ei], key);
        if (t == kInfTime) continue;

        // Queue push/decrease + ancestor accounting for the surviving edge.
        stats_.relaxed++;
        const std::uint64_t new_key = make_key(t, li);
        bool improved = true;
        bool contained = false;
        switch (heap_.push_or_decrease(wid, new_key)) {
          case QueuePush::kPushed:
            stats_.pushed++;
            break;
          case QueuePush::kDecreased:
            stats_.decreased++;
            contained = true;
            break;
          case QueuePush::kUnchanged:
            improved = false;
            contained = true;
            break;
        }
        if constexpr (Hook::kWantsAncestors) {
          if (improved) {
            const std::uint8_t new_anc =
                (had_anc || hook.is_transfer(flat.station_of(v))) ? 1 : 0;
            if (!contained) {
              anc_.set(wid, new_anc);
              if (!new_anc) noanc_[li]++;
            } else {
              const std::uint8_t old_anc = anc_.get(wid);
              if (old_anc != new_anc) {
                anc_.set(wid, new_anc);
                if (new_anc) {
                  noanc_[li]--;
                } else {
                  noanc_[li]++;
                }
              }
            }
          }
        }
      }
    }
  }

 private:
  // Queue ids address the (node, local connection) lattice: id = v * W + li.
  // Keys are the composite (arrival, reversed connection index) described
  // at kKeyShift.
  SpcsQueue heap_;
  EpochArray<Time> arr_;
  EpochArray<std::int32_t> maxconn_;
  EpochArray<std::uint8_t> anc_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> noanc_;
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> done_;
  std::uint32_t width_ = 0;
  QueryStats stats_;
};

}  // namespace pconn
