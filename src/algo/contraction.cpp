#include "algo/contraction.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "algo/workspace.hpp"
#include "util/epoch_array.hpp"
#include "util/lazy_heap.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace pconn {

// --- TTF composition primitives ------------------------------------------

Ttf link_edge_ttfs(const TtfPoolBuilder& pool, std::uint32_t a,
                   std::uint32_t b) {
  const Time period = pool.period();
  const bool ca = TdGraph::word_is_const(a);
  const bool cb = TdGraph::word_is_const(b);
  assert(!(ca && cb) && "const-const paths never need a linked TTF");
  std::vector<TtfPoint> pts;
  if (ca) {
    // Shift form: a connection departing the second leg at D becomes
    // (D - c, dur + c) — show up c early at the tail, pay c on top.
    const Time c = TdGraph::word_weight(a);
    assert(c < period);
    const auto src = pool.points(TdGraph::word_ttf(b));
    pts.reserve(src.size());
    for (const TtfPoint& p : src) {
      pts.push_back({p.dep >= c ? p.dep - c : p.dep + period - c, p.dur + c});
    }
  } else if (cb) {
    const Time c = TdGraph::word_weight(b);
    const auto src = pool.points(TdGraph::word_ttf(a));
    pts.reserve(src.size());
    for (const TtfPoint& p : src) pts.push_back({p.dep, p.dur + c});
  } else {
    const std::uint32_t fa = TdGraph::word_ttf(a);
    const std::uint32_t fb = TdGraph::word_ttf(b);
    const auto src = pool.points(fa);
    if (src.empty() || pool.pool().empty_at(fb)) return Ttf{};
    // A pruned function's arrivals (dep + dur) ascend strictly in point
    // order, so the second leg evaluates through the pool's sorted-merge
    // kernel: one division for the whole composition instead of one per
    // point (the arrival_tn_sorted shape the batch restructure built).
    pts.resize(src.size());
    pool.pool().arrival_tn_sorted_fused(
        fb, src.size(),
        [&](std::size_t k) { return src[k].dep + src[k].dur; },
        [&](std::size_t k, Time arr) {
          pts[k] = {src[k].dep, arr - src[k].dep};
        });
  }
  return Ttf::build(std::move(pts), period);
}

Ttf merge_edge_ttfs(const TtfPoolBuilder& pool, std::uint32_t a,
                    std::uint32_t b) {
  assert(!TdGraph::word_is_const(a) && !TdGraph::word_is_const(b));
  const auto pa = pool.points(TdGraph::word_ttf(a));
  const auto pb = pool.points(TdGraph::word_ttf(b));
  std::vector<TtfPoint> pts;
  pts.reserve(pa.size() + pb.size());
  pts.insert(pts.end(), pa.begin(), pa.end());
  pts.insert(pts.end(), pb.begin(), pb.end());
  // Each input is "min over its points"; the union with dominated points
  // pruned is exactly the pointwise minimum of the two.
  return Ttf::build(std::move(pts), pool.period());
}

std::pair<Time, Time> word_cost_bounds(const TtfPoolBuilder& pool,
                                       std::uint32_t w, Time period) {
  if (TdGraph::word_is_const(w)) {
    const Time c = TdGraph::word_weight(w);
    return {c, c};
  }
  const auto pts = pool.points(TdGraph::word_ttf(w));
  if (pts.empty()) return {kInfTime, kInfTime};
  // The supremum of wait + dur on (dep_i, dep_next] is attained one second
  // after dep_i: almost the whole gap, then the next ride. Departures
  // ascend within [0, period), so every gap but the last is a plain
  // difference and the last wraps to the first point (a whole period for
  // a one-point function).
  const std::size_t last = pts.size() - 1;
  Time mn = pts[last].dur;
  Time mx = period + pts[0].dep - pts[last].dep - 1 + pts[0].dur;
  for (std::size_t i = 0; i < last; ++i) {
    mn = std::min(mn, pts[i].dur);
    mx = std::max(mx, pts[i + 1].dep - pts[i].dep - 1 + pts[i + 1].dur);
  }
  return {mn, mx};
}

// --- the contraction driver ----------------------------------------------

namespace {

constexpr std::uint64_t kInfCost = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kPriorityBias = std::uint64_t{1} << 32;
constexpr double kOverlayPoolGrowth = 4.5;  // overlay pool / base pool

enum NodeState : std::uint8_t { kLive = 0, kContracted = 1, kFrozen = 2 };

/// One edge of the dynamic working graph (mirrored in out_ and in_).
struct WorkEdge {
  NodeId node;           // the other endpoint
  std::uint32_t word;    // packed const-or-ttf word (overlay pool)
  std::uint32_t origin;  // flat edge id or kShortcutBit | record id
  std::uint32_t hops;    // flat edges this edge spans
  Time min_cost;         // min over t of the edge's travel time
  Time max_cost;         // max over t (kInfTime: empty function)
};

/// A surviving shortcut of one simulated contraction.
struct Candidate {
  NodeId tail, head;
  std::uint32_t origin_a, origin_b;
  std::uint32_t hops;
  Ttf ttf;
};

/// Per-thread scratch of the simulation phase: the witness Dijkstra state
/// lives in an arena-backed workspace.
struct Worker {
  QueryWorkspace ws;
  EpochArray<std::uint64_t> dist;
  LazyDAryHeap<std::uint64_t, 4> heap;
  std::uint64_t witness_searches = 0;
  std::uint64_t witness_dropped = 0;

  Worker() : dist(ws.alloc()), heap(ws.alloc()) {}
};

}  // namespace

class ContractionBuilder {
 public:
  ContractionBuilder(const Timetable& tt, const TdGraph& g,
                     const OverlayContractionOptions& opt)
      : tt_(tt),
        g_(g),
        opt_(opt),
        pool_(std::max(1u, opt.threads)),
        ttfs_(tt.period()) {}

  OverlayGraph build() {
    Timer timer;
    const NodeId n = g_.num_nodes();
    workers_.reserve(pool_.num_threads());
    for (std::size_t t = 0; t < pool_.num_threads(); ++t) {
      workers_.push_back(std::make_unique<Worker>());
    }

    // The overlay pool starts as a verbatim copy of the base pool, so flat
    // edge words keep their numeric value and shortcut TTFs append behind.
    // Reserved once: the overlay pool measured 3.2-4.4x the base pool's
    // functions, points and buckets on every generator preset, and
    // regrowing it was most of the serial commit phase. finish() returns
    // the slack's pages to the kernel without copying the arrays.
    const TtfPool& base = g_.ttfs();
    ttfs_.reserve_like(base, kOverlayPoolGrowth);
    ttfs_.append_copy(base, 0, static_cast<std::uint32_t>(base.size()));

    init_working_graph();

    order_.reset_capacity(n);
    for (NodeId v = static_cast<NodeId>(tt_.num_stations()); v < n; ++v) {
      order_.push(v, priority(v));
    }

    batch_.reserve(opt_.batch_size);
    cand_lists_.resize(opt_.batch_size);
    capped_.assign(opt_.batch_size, 0);
    while (!order_.empty()) {
      select_batch();
      if (batch_.empty()) break;
      simulate_batch();
      commit_batch();
      ++stats_.rounds;
    }

    for (const auto& wk : workers_) {
      stats_.witness_searches += wk->witness_searches;
      stats_.witness_dropped += wk->witness_dropped;
    }
    OverlayGraph ov = assemble();
    ov.build_stats_.time_ms = timer.elapsed_ms();
    return ov;
  }

 private:
  // --- ordering ---------------------------------------------------------

  /// The lazy-update contraction key: edge difference (shortcuts inserted
  /// minus edges removed, estimated as in*out - in - out) weighted with the
  /// node's shortcut depth (level). Recomputed at pop; see select_batch.
  std::uint64_t priority(NodeId v) const {
    const auto in = static_cast<std::int64_t>(in_[v].size());
    const auto out = static_cast<std::int64_t>(out_[v].size());
    const std::int64_t key = (in * out - in - out) * 8 +
                             static_cast<std::int64_t>(level_[v]) * 2;
    return static_cast<std::uint64_t>(key + kPriorityBias);
  }

  void select_batch() {
    ++round_;
    batch_.clear();
    deferred_.clear();
    while (!order_.empty() && batch_.size() < opt_.batch_size) {
      const auto [v, key] = order_.pop();
      if (state_[v] != kLive) continue;        // contracted/frozen: stale
      if (picked_round_[v] == round_) continue;  // duplicate of a selection
      const std::uint64_t fresh = priority(v);
      if (!order_.empty() && fresh > order_.top_key()) {
        order_.push(v, fresh);  // lazy update: no longer the minimum
        continue;
      }
      if (blocked_round_[v] == round_) {
        // Adjacent to a node already selected this round: contracting both
        // at once would race on shared edges. Back into the queue after
        // selection ends.
        deferred_.push_back({v, fresh});
        continue;
      }
      picked_round_[v] = round_;
      batch_.push_back(v);
      for (const WorkEdge& e : out_[v]) blocked_round_[e.node] = round_;
      for (const WorkEdge& e : in_[v]) blocked_round_[e.node] = round_;
    }
    for (const auto& [v, key] : deferred_) order_.push(v, key);
  }

  // --- simulation (parallel, read-only on the working graph) ------------

  /// Workers claim batch slots from an atomic cursor: a strided split
  /// leaves the round waiting on whichever worker drew the expensive hubs.
  /// Each slot's result lands in its own cand_lists_/capped_ entry and the
  /// witness counters are summed at the end, so who simulated a node never
  /// shows in the overlay.
  void simulate_batch() {
    std::atomic<std::size_t> next{0};
    pool_.run([&](std::size_t t) {
      Worker& wk = *workers_[t];
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch_.size()) break;
        if (opt_.faults) {
          opt_.faults->check(FaultInjector::Site::kContractionWorker);
        }
        capped_[i] = simulate_node(batch_[i], wk, cand_lists_[i]) ? 0 : 1;
      }
    });
  }

  /// Upper-bound Dijkstra from u avoiding v: settle-capped, pruned at
  /// `bound` (beyond it no candidate of this tail can be witnessed).
  void witness_search(Worker& wk, NodeId u, NodeId v, std::uint64_t bound) {
    ++wk.witness_searches;
    wk.dist.ensure_and_clear(g_.num_nodes(), kInfCost);
    wk.heap.reset_capacity(g_.num_nodes());
    wk.dist.set(u, 0);
    wk.heap.push(u, 0);
    std::uint32_t settles = 0;
    while (!wk.heap.empty() && settles < opt_.witness_settles) {
      const auto [x, key] = wk.heap.pop();
      if (key > wk.dist.get(x)) continue;  // stale lazy entry
      if (key > bound) break;
      ++settles;
      for (const WorkEdge& e : out_[x]) {
        if (e.node == v || e.max_cost == kInfTime) continue;
        const std::uint64_t nd = key + e.max_cost;
        if (nd < wk.dist.get(e.node)) {
          wk.dist.set(e.node, nd);
          wk.heap.push(e.node, nd);
        }
      }
    }
  }

  /// Builds v's surviving shortcuts into `cands`. Returns false when a cap
  /// fires — the node then freezes into the core instead of contracting.
  bool simulate_node(NodeId v, Worker& wk, std::vector<Candidate>& cands) {
    cands.clear();
    // Best conceivable shortcut lower bound of any pair through v — the
    // witness searches' pruning horizon.
    Time max_out_min = 0;
    for (const WorkEdge& b : out_[v]) {
      if (b.min_cost != kInfTime) max_out_min = std::max(max_out_min, b.min_cost);
    }
    // One search per run of same-tail in-edges: parallel edges (a flat
    // edge plus a merged shortcut on the same pair) share the settle-
    // capped Dijkstra — the dominant preprocessing cost. The worker's
    // dist array holds ONE tail's distances at a time (every search
    // clears it), so reuse is keyed on the tail it currently holds; a
    // tail recurring after a different one simply searches again. The
    // pruning horizon covers the tail's loosest in-edge, so the shared
    // dist is valid for every parallel edge's (larger or equal) test.
    NodeId dist_tail = kInvalidNode;  // whose distances wk.dist holds
    for (std::size_t ai = 0; ai < in_[v].size(); ++ai) {
      const WorkEdge& a = in_[v][ai];
      if (a.min_cost == kInfTime) continue;
      const NodeId u = a.node;
      const bool witnessed = opt_.witness_settles > 0;
      if (witnessed && dist_tail != u) {
        Time tail_min_max = a.min_cost;
        for (const WorkEdge& a2 : in_[v]) {
          if (a2.node == u && a2.min_cost != kInfTime) {
            tail_min_max = std::max(tail_min_max, a2.min_cost);
          }
        }
        witness_search(
            wk, u, v, static_cast<std::uint64_t>(tail_min_max) + max_out_min);
        dist_tail = u;
      }
      for (const WorkEdge& b : out_[v]) {
        const NodeId w = b.node;
        if (w == u || b.min_cost == kInfTime) continue;
        const Time lb = a.min_cost + b.min_cost;
        if (witnessed && wk.dist.get(w) <= lb) {
          // A time-independent path at most this long exists without v:
          // the shortcut can never win at any departure time.
          ++wk.witness_dropped;
          continue;
        }
        const std::uint32_t hops = a.hops + b.hops;
        if (hops > opt_.max_hops) return false;
        if (cands.size() >= opt_.max_new_edges) return false;
        Ttf f = link_edge_ttfs(ttfs_, a.word, b.word);
        if (f.empty()) continue;
        cands.push_back({u, w, a.origin, b.origin, hops, std::move(f)});
      }
    }
    // Edge-difference freeze: contracting must not grow the core graph
    // beyond the dial — a node whose witnessed shortcut set still exceeds
    // the edges it removes by more than max_edge_diff stays in the core.
    const std::int64_t removed =
        static_cast<std::int64_t>(in_[v].size() + out_[v].size());
    if (static_cast<std::int64_t>(cands.size()) - removed >
        static_cast<std::int64_t>(opt_.max_edge_diff)) {
      return false;
    }
    return true;
  }

  // --- commit (serial) --------------------------------------------------

  void commit_batch() {
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      const NodeId v = batch_[i];
      if (capped_[i]) {
        state_[v] = kFrozen;
        ++stats_.frozen;
        continue;
      }
      contract_node(v, cand_lists_[i]);
    }
  }

  void contract_node(NodeId v, std::vector<Candidate>& cands) {
    // Adjacency snapshots at contraction time: out-edges become the node's
    // upward CSR block, in-edges feed the downward sweep.
    up_snap_[v] = std::move(out_[v]);
    down_snap_[v] = std::move(in_[v]);
    out_[v].clear();
    in_[v].clear();
    for (const WorkEdge& a : down_snap_[v]) {
      std::erase_if(out_[a.node],
                    [&](const WorkEdge& e) { return e.node == v; });
    }
    for (const WorkEdge& b : up_snap_[v]) {
      std::erase_if(in_[b.node],
                    [&](const WorkEdge& e) { return e.node == v; });
    }

    for (Candidate& c : cands) {
      const std::uint32_t word_link = ttfs_.add_raw(c.ttf.points());
      shortcuts_.push_back({word_link, v, c.origin_a, c.origin_b});
      const std::uint32_t origin_link =
          OverlayGraph::kShortcutBit |
          static_cast<std::uint32_t>(shortcuts_.size() - 1);
      const auto [mn, mx] =
          word_cost_bounds(ttfs_, word_link, tt_.period());

      WorkEdge* existing = nullptr;
      for (WorkEdge& e : out_[c.tail]) {
        if (e.node == c.head && OverlayGraph::origin_is_shortcut(e.origin)) {
          existing = &e;
          break;
        }
      }
      if (existing != nullptr) {
        // Parallel shortcut on the same pair: fold into one edge whose TTF
        // is the pointwise minimum. The merge record keeps both branches so
        // journey replay can still tell which one is ridden at a given time.
        const std::uint32_t old_origin = existing->origin;
        const Ttf merged =
            merge_edge_ttfs(ttfs_, existing->word, word_link);
        const std::uint32_t word_merged = ttfs_.add_raw(merged.points());
        shortcuts_.push_back(
            {word_merged, kInvalidNode, old_origin, origin_link});
        const std::uint32_t origin_merged =
            OverlayGraph::kShortcutBit |
            static_cast<std::uint32_t>(shortcuts_.size() - 1);
        const auto [mmn, mmx] =
            word_cost_bounds(ttfs_, word_merged, tt_.period());
        existing->word = word_merged;
        existing->origin = origin_merged;
        existing->hops = std::max(existing->hops, c.hops);
        existing->min_cost = mmn;
        existing->max_cost = mmx;
        for (WorkEdge& e : in_[c.head]) {
          if (e.node == c.tail && e.origin == old_origin) {
            e = *existing;
            e.node = c.tail;
            break;
          }
        }
        ++stats_.merges;
      } else {
        out_[c.tail].push_back({c.head, word_link, origin_link, c.hops, mn, mx});
        in_[c.head].push_back({c.tail, word_link, origin_link, c.hops, mn, mx});
      }
    }

    state_[v] = kContracted;
    rank_[v] = static_cast<std::uint32_t>(contracted_order_.size());
    contracted_order_.push_back(v);
    ++stats_.contracted;

    // Neighbors got new edges and a deeper level: requeue with fresh keys
    // (duplicates are fine — the lazy queue drops stale entries at pop).
    ++round_;  // reuse the round stamps to dedup the neighbor set
    auto requeue = [&](NodeId nb) {
      if (picked_round_[nb] == round_) return;
      picked_round_[nb] = round_;
      level_[nb] = std::max(level_[nb], level_[v] + 1);
      if (state_[nb] == kLive && !g_.is_station_node(nb)) {
        order_.push(nb, priority(nb));
      }
    };
    for (const WorkEdge& e : up_snap_[v]) requeue(e.node);
    for (const WorkEdge& e : down_snap_[v]) requeue(e.node);
  }

  // --- setup / teardown -------------------------------------------------

  void init_working_graph() {
    const NodeId n = g_.num_nodes();
    out_.resize(n);
    in_.resize(n);
    up_snap_.resize(n);
    down_snap_.resize(n);
    level_.assign(n, 0);
    state_.assign(n, kLive);
    rank_.assign(n, kCoreRank);
    picked_round_.assign(n, 0);
    blocked_round_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      for (TdGraph::EdgeId e = g_.edge_begin(v); e < g_.edge_end(v); ++e) {
        const std::uint32_t w = g_.edge_word(e);
        const auto [mn, mx] = word_cost_bounds(ttfs_, w, tt_.period());
        const NodeId head = g_.edge_head(e);
        out_[v].push_back({head, w, e, 1, mn, mx});
        in_[head].push_back({v, w, e, 1, mn, mx});
      }
    }
  }

  OverlayGraph assemble() {
    const NodeId n = g_.num_nodes();
    OverlayGraph ov;
    ov.num_stations_ = tt_.num_stations();
    ov.period_ = tt_.period();
    ov.num_core_ = n - contracted_order_.size();
    ov.num_base_ttfs_ = static_cast<std::uint32_t>(g_.ttfs().size());
    ov.num_base_edges_ = static_cast<std::uint32_t>(g_.num_edges());
    std::vector<Time> board_shift(tt_.num_stations());
    for (StationId s = 0; s < tt_.num_stations(); ++s) {
      board_shift[s] = tt_.transfer_time(s);
    }

    std::vector<std::uint32_t> edge_begin(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      const auto& edges = state_[v] == kContracted ? up_snap_[v] : out_[v];
      edge_begin[v + 1] =
          edge_begin[v] + static_cast<std::uint32_t>(edges.size());
    }
    std::vector<NodeId> heads;
    std::vector<std::uint32_t> words, origins;
    heads.reserve(edge_begin[n]);
    words.reserve(edge_begin[n]);
    origins.reserve(edge_begin[n]);
    for (NodeId v = 0; v < n; ++v) {
      const auto& edges = state_[v] == kContracted ? up_snap_[v] : out_[v];
      for (const WorkEdge& e : edges) {
        heads.push_back(e.node);
        words.push_back(e.word);
        origins.push_back(e.origin);
        if (OverlayGraph::origin_is_shortcut(e.origin)) ++stats_.shortcuts;
      }
    }

    // Downward sweep order: descending contraction rank, so every in-edge
    // tail is finalized before its head.
    std::vector<NodeId> down_node, down_tails;
    std::vector<std::uint32_t> down_begin{0}, down_words;
    std::vector<std::uint32_t> down_pos(n, OverlayGraph::kNoDownPos);
    for (std::size_t i = contracted_order_.size(); i-- > 0;) {
      const NodeId v = contracted_order_[i];
      down_pos[v] = static_cast<std::uint32_t>(down_node.size());
      down_node.push_back(v);
      for (const WorkEdge& e : down_snap_[v]) {
        down_tails.push_back(e.node);
        down_words.push_back(e.word);
      }
      down_begin.push_back(static_cast<std::uint32_t>(down_tails.size()));
    }

    ov.rank_ = ConstArray(std::move(rank_));
    ov.board_shift_ = ConstArray(std::move(board_shift));
    ov.edge_begin_ = ConstArray(std::move(edge_begin));
    ov.heads_ = ConstArray(std::move(heads));
    ov.words_ = ConstArray(std::move(words));
    ov.origins_ = ConstArray(std::move(origins));
    ov.shortcuts_ = ConstArray(std::move(shortcuts_));
    ov.down_node_ = ConstArray(std::move(down_node));
    ov.down_begin_ = ConstArray(std::move(down_begin));
    ov.down_tails_ = ConstArray(std::move(down_tails));
    ov.down_words_ = ConstArray(std::move(down_words));
    ov.down_pos_ = ConstArray(std::move(down_pos));
    ov.ttfs_ = ttfs_.finish();
    ov.build_stats_ = stats_;
    return ov;
  }

  const Timetable& tt_;
  const TdGraph& g_;
  OverlayContractionOptions opt_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<Worker>> workers_;

  TtfPoolBuilder ttfs_;  // the overlay pool under construction
  std::vector<OverlayGraph::ShortcutRec> shortcuts_;
  std::vector<std::vector<WorkEdge>> out_, in_;          // working graph
  std::vector<std::vector<WorkEdge>> up_snap_, down_snap_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> rank_;
  std::vector<NodeId> contracted_order_;

  LazyDAryHeap<std::uint64_t, 4> order_;  // the lazy-update ordering queue
  std::uint32_t round_ = 0;
  std::vector<std::uint32_t> picked_round_, blocked_round_;
  std::vector<NodeId> batch_;
  std::vector<std::pair<NodeId, std::uint64_t>> deferred_;
  std::vector<std::vector<Candidate>> cand_lists_;
  std::vector<std::uint8_t> capped_;

  ContractionStats stats_;
};

unsigned default_contraction_threads() {
  // threads is given here, so this does not re-enter its own initializer.
  static const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u,
                 OverlayContractionOptions{.threads = 1}.batch_size);
  return threads;
}

OverlayGraph contract_graph(const Timetable& tt, const TdGraph& g,
                            const OverlayContractionOptions& opt) {
  return ContractionBuilder(tt, g, opt).build();
}

// --- incremental re-link --------------------------------------------------

/// Friend of OverlayGraph: the re-linked overlay shares every structure
/// array of the old one and swaps in the rebuilt pool — the structural
/// half of the exactness argument (see contraction.hpp).
class OverlayRelinker {
 public:
  static OverlayGraph splice(const OverlayGraph& src, TtfPool&& pool) {
    OverlayGraph ov = src;
    ov.ttfs_ = std::move(pool);
    return ov;
  }
};

RelinkResult relink_overlay(const Timetable& tt, const TdGraph& g_new,
                            const TdGraph& g_old, const OverlayGraph& old_ov,
                            const RelinkOptions& opt) {
  Timer timer;
  RelinkResult res;
  const auto fail = [&](RelinkStatus s) {
    res.status = s;
    res.stats.time_ms = timer.elapsed_ms();
    return std::move(res);
  };

  // Witness decisions bake travel-time bounds into the overlay structure;
  // only witness-free overlays re-link exactly (contraction.hpp).
  if (old_ov.build_stats().witness_searches != 0) {
    return fail(RelinkStatus::kStructureChanged);
  }

  // Structural identity of the perturbed graph: same topology, numerically
  // identical edge words, same period/stations/transfer times, and the same
  // TTF emptiness pattern. Any mismatch means a fresh contraction could
  // order or cap differently — full rebuild territory.
  const TtfPool& old_base = g_old.ttfs();
  const TtfPool& new_base = g_new.ttfs();
  const std::uint32_t nb_ttfs = old_ov.num_base_ttfs();
  if (g_new.num_nodes() != g_old.num_nodes() ||
      g_new.num_edges() != g_old.num_edges() ||
      g_old.num_edges() != old_ov.num_base_edges() ||
      new_base.period() != old_base.period() ||
      new_base.period() != tt.period() || old_ov.period() != tt.period() ||
      new_base.size() != old_base.size() || old_base.size() != nb_ttfs ||
      tt.num_stations() != old_ov.num_stations()) {
    return fail(RelinkStatus::kStructureChanged);
  }
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    if (tt.transfer_time(s) != old_ov.board_shift(s)) {
      return fail(RelinkStatus::kStructureChanged);
    }
  }
  for (NodeId v = 0; v < g_new.num_nodes(); ++v) {
    if (g_new.edge_begin(v) != g_old.edge_begin(v)) {
      return fail(RelinkStatus::kStructureChanged);
    }
  }
  for (TdGraph::EdgeId e = 0; e < g_new.num_edges(); ++e) {
    if (g_new.edge_head(e) != g_old.edge_head(e) ||
        g_new.edge_word(e) != g_old.edge_word(e)) {
      return fail(RelinkStatus::kStructureChanged);
    }
  }

  const TtfPool& old_pool = old_ov.ttfs();
  const std::uint32_t nrecs =
      static_cast<std::uint32_t>(old_ov.num_shortcuts());
  const std::uint32_t total = nb_ttfs + nrecs;
  if (old_pool.size() != total) return fail(RelinkStatus::kStructureChanged);
  // Record r's TTF is pool function nb_ttfs + r (add_raw and record pushes
  // are strictly 1:1 in contract_node); the splice loop relies on it.
  for (std::uint32_t r = 0; r < nrecs; ++r) {
    if (old_ov.shortcut(r).word != nb_ttfs + r) {
      return fail(RelinkStatus::kStructureChanged);
    }
  }

  // Diff the base pools. The overlay pool's base prefix is the old base
  // pool verbatim, so emptiness is checked against the new base directly —
  // a function flipping between empty and non-empty changes which
  // candidates the contraction keeps (simulate_node skips empty links).
  std::vector<std::uint8_t> changed_base(nb_ttfs, 0);
  for (std::uint32_t f = 0; f < nb_ttfs; ++f) {
    if (old_base.empty_at(f) != new_base.empty_at(f)) {
      return fail(RelinkStatus::kStructureChanged);
    }
    if (old_base.points(f) != new_base.points(f)) {
      changed_base[f] = 1;
      ++res.stats.changed_base_ttfs;
    }
  }

  // Close the changed flat edges over the provenance DAG (reverse index):
  // everything reachable must be recomputed, everything else splices.
  const OverlayGraph::ProvenanceIndex pidx = old_ov.build_provenance_index();
  std::vector<std::uint8_t> affected(nrecs, 0);
  std::vector<std::uint32_t> frontier;  // origin keys still to expand
  for (TdGraph::EdgeId e = 0; e < g_new.num_edges(); ++e) {
    const std::uint32_t w = g_old.edge_word(e);
    if (TdGraph::word_is_const(w)) continue;
    if (!changed_base[TdGraph::word_ttf(w)]) continue;
    ++res.stats.changed_flat_edges;
    frontier.push_back(e);
  }
  while (!frontier.empty()) {
    const std::uint32_t key = frontier.back();
    frontier.pop_back();
    for (const std::uint32_t r : pidx.dependents(key)) {
      if (affected[r]) continue;
      affected[r] = 1;
      ++res.stats.affected_shortcuts;
      frontier.push_back(old_ov.num_base_edges() + r);
    }
  }
  if (res.stats.affected_shortcuts > opt.blast_radius_cap) {
    return fail(RelinkStatus::kBlastRadiusExceeded);
  }

  const auto deadline_hit = [&] {
    if (opt.faults && opt.faults->fires(FaultInjector::Site::kDeadline)) {
      return true;
    }
    return opt.deadline_ms > 0.0 && timer.elapsed_ms() > opt.deadline_ms;
  };
  const auto origin_word = [&](std::uint32_t o) {
    return OverlayGraph::origin_is_shortcut(o)
               ? old_ov.shortcut(o & ~OverlayGraph::kShortcutBit).word
               : g_new.edge_word(o);
  };

  // Rebuild the pool in function-index order — exactly the order the
  // contraction appended in, so indices (and thus every edge word) keep
  // their numeric values. Unchanged runs splice verbatim; affected
  // functions recompute through the same link/merge kernels against the
  // partially-built pool, whose lower indices are already final (records
  // only reference earlier records).
  TtfPoolBuilder pool(tt.period());
  // A delay rarely changes a function's point count: sized like the old
  // pool, the rebuild usually never regrows.
  pool.reserve_like(old_pool);
  std::vector<TtfPoint> base_pts;  // a changed base function, decoded
  std::uint32_t f = 0;
  while (f < total) {
    const bool needs =
        f < nb_ttfs ? changed_base[f] != 0 : affected[f - nb_ttfs] != 0;
    if (!needs) {
      std::uint32_t j = f + 1;
      while (j < total &&
             !(j < nb_ttfs ? changed_base[j] != 0 : affected[j - nb_ttfs] != 0)) {
        ++j;
      }
      const std::size_t before = pool.num_points();
      pool.append_copy(old_pool, f, j);
      res.stats.copied_points += pool.num_points() - before;
      f = j;
      continue;
    }
    if (deadline_hit()) return fail(RelinkStatus::kDeadlineExceeded);
    if (f < nb_ttfs) {
      if (opt.faults) opt.faults->check(FaultInjector::Site::kPoolAppend);
      const auto pts = new_base.points(f);
      base_pts.assign(pts.begin(), pts.end());
      pool.add_raw(base_pts);
      res.stats.recomputed_points += pts.size();
    } else {
      if (opt.faults) opt.faults->check(FaultInjector::Site::kRelinkShortcut);
      const OverlayGraph::ShortcutRec& rec = old_ov.shortcut(f - nb_ttfs);
      const Ttf t =
          rec.mid != kInvalidNode
              ? link_edge_ttfs(pool, origin_word(rec.a), origin_word(rec.b))
              : merge_edge_ttfs(pool, origin_word(rec.a), origin_word(rec.b));
      // Base emptiness was checked invariant, which propagates through
      // link (empty iff a leg is empty) and merge (empty iff both are) —
      // this is defense in depth, not an expected exit.
      if (t.empty() != old_pool.empty_at(f)) {
        return fail(RelinkStatus::kStructureChanged);
      }
      if (opt.faults) opt.faults->check(FaultInjector::Site::kPoolAppend);
      const std::uint32_t idx = pool.add_raw(t.points());
      (void)idx;
      assert(idx == f);
      res.stats.recomputed_points += t.points().size();
    }
    ++res.stats.recomputed_functions;
    ++f;
  }

  res.overlay = OverlayRelinker::splice(old_ov, pool.finish());
  res.status = RelinkStatus::kRelinked;
  res.stats.time_ms = timer.elapsed_ms();
  return res;
}

}  // namespace pconn
