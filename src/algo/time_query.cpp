#include "algo/time_query.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <type_traits>

#include "graph/overlay_graph.hpp"

namespace pconn {

namespace {

constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();

// Journey scratch: the overlay engine's lives in its arena; the flat
// engine's stays on the heap, so its arena holds exactly its search arrays.
ScratchAlloc journey_alloc(const OverlayGraph* ov, QueryWorkspace* ws) {
  return ov ? scratch_alloc(ws) : ScratchAlloc();
}

}  // namespace

TimeQuery::TimeQuery(const Timetable& tt, const TdGraph& g,
                     const OverlayGraph* ov, QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      ov_(ov),
      heap_(scratch_alloc(ws)),
      dist_(scratch_alloc(ws)),
      parent_(scratch_alloc(ws)),
      parent_edge_(scratch_alloc(ws)),
      path_(ArenaAllocator<NodeId>(journey_alloc(ov, ws))),
      ready_(ArenaAllocator<Time>(journey_alloc(ov, ws))),
      edge_path_(ArenaAllocator<std::uint32_t>(journey_alloc(ov, ws))) {
  // A cached overlay must match the graph it was contracted from
  // (timetable/snapshot.hpp); the two share node ids.
  if (ov_) require_overlay_matches(tt, g, *ov_);
  heap_.reset_capacity(g.num_nodes());
  dist_.assign(g.num_nodes(), kInfTime);
  parent_.assign(g.num_nodes(), kInvalidNode);
  if (ov_) parent_edge_.assign(g.num_nodes(), kNoEdge);
}

Time TimeQuery::source_arrival(std::uint32_t w, Time t) const {
  assert(ov_ && "source_arrival is overlay-only");
  if (TdGraph::word_is_const(w)) return t;  // free first boarding
  // Shortcut TTFs out of a station carry T(S) folded in; the free boarding
  // at the source evaluates the same function at t - T(S) (wrapping one
  // period up and back down when t < T(S) keeps the arithmetic unsigned).
  const Time c = ov_->board_shift(source_);
  if (c == 0) return ov_->ttfs().arrival(w, t);
  if (t >= c) return ov_->ttfs().arrival(w, t - c);
  const Time raw = ov_->ttfs().arrival(w, t + ov_->period() - c);
  return raw == kInfTime ? kInfTime : raw - ov_->period();
}

std::uint32_t TimeQuery::parent_edge(NodeId v) const {
  assert(ov_ && "parent_edge is overlay-only");
  return parent_edge_.get(v);
}

void TimeQuery::run(StationId source, Time departure, StationId target) {
  stats_ = QueryStats{};
  heap_.clear();
  dist_.clear();
  parent_.clear();
  source_ = source;
  departure_ = departure;
  full_run_ = target == kInvalidStation;
  swept_ = false;
  if (ov_) {
    parent_edge_.clear();
    run_on(*ov_, target);
  } else {
    run_on(g_, target);
  }
  heap_.clear();
}

template <typename Graph>
void TimeQuery::run_on(const Graph& graph, StationId target) {
  constexpr bool kOverlay = std::is_same_v<Graph, OverlayGraph>;
  const NodeId src = graph.station_node(source_);
  dist_.set(src, departure_);
  heap_.push(src, departure_);
  stats_.pushed++;

  while (!heap_.empty()) {
    auto [v, key] = heap_.pop();
    stats_.settled++;
    if (target != kInvalidStation && v == graph.station_node(target)) break;
    // SoA relax: stream heads and prefetch the next head's distance slot.
    // Before the (expensive) TTF evaluation, test the streamed head
    // against `dist <= key`: an edge arrival can never precede the entry
    // time, so such a head — settled or merely already reached this early
    // — cannot improve and the eval is skipped. One body, no gather ->
    // eval -> commit phasing (docs/architecture.md "Batch relaxation").
    const std::uint32_t eb = graph.edge_begin(v);
    const std::uint32_t ee = graph.edge_end(v);
    const NodeId* const heads = graph.heads_data();
    const std::uint32_t* const words = graph.words_data();
    const bool at_src = v == src;
    for (std::uint32_t ei = eb; ei < ee; ++ei) {
      if (ei + 1 < ee) {
        dist_.prefetch(heads[ei + 1]);
        graph.prefetch_edge_ttf(ei + 1);
      }
      const NodeId head = heads[ei];
      if (dist_.get(head) <= key) continue;  // t >= key >= dist: hopeless
      const std::uint32_t w = words[ei];
      Time t;
      if constexpr (kOverlay) {
        t = at_src ? source_arrival(w, key) : graph.arrival_by_word(w, key);
      } else {
        // No transfer penalty for the very first boarding at the source.
        t = (at_src && TdGraph::word_is_const(w))
                ? key
                : graph.arrival_by_word(w, key);
      }
      if (t == kInfTime) continue;
      stats_.relaxed++;
      if (t < dist_.get(head)) {
        if (heap_.push_or_decrease(head, t) == QueuePush::kPushed) {
          stats_.pushed++;
        } else {
          stats_.decreased++;
        }
        dist_.set(head, t);
        parent_.set(head, v);
        if constexpr (kOverlay) parent_edge_.set(head, ei);
      }
    }
  }
}

void TimeQuery::settle_contracted() {
  assert(full_run_ && "settle_contracted needs a full (no-target) run");
  if (!ov_ || swept_) return;  // labels final; a pass would only re-count
  swept_ = true;
  const OverlayGraph& ov = *ov_;
  const NodeId src = ov.station_node(source_);
  // Descending contraction rank: every down-edge tail — core or higher
  // ranked — is final before its head, so one min-pass per node suffices
  // (the CH down-path argument; no queue, no re-visits).
  for (std::size_t i = 0; i < ov.num_contracted(); ++i) {
    const NodeId v = ov.down_node(i);
    Time best = kInfTime;
    NodeId best_tail = kInvalidNode;
    for (std::uint32_t e = ov.down_begin(i); e < ov.down_end(i); ++e) {
      const NodeId tail = ov.down_tail(e);
      const Time t0 = dist_.get(tail);
      if (t0 == kInfTime) continue;
      stats_.relaxed++;
      const std::uint32_t w = ov.down_word(e);
      const Time t =
          tail == src ? source_arrival(w, t0) : ov.arrival_by_word(w, t0);
      if (t != kInfTime && t < best) {
        best = t;
        best_tail = tail;
      }
    }
    if (best != kInfTime) {
      dist_.set(v, best);
      parent_.set(v, best_tail);
    }
  }
}

Time TimeQuery::origin_arrival(std::uint32_t origin, Time t,
                               bool at_source) const {
  const std::uint32_t w =
      OverlayGraph::origin_is_shortcut(origin)
          ? ov_->shortcut(origin & ~OverlayGraph::kShortcutBit).word
          : g_.edge_word(origin);
  return at_source ? source_arrival(w, t) : ov_->arrival_by_word(w, t);
}

Time TimeQuery::replay_origin(std::uint32_t origin, NodeId tail, Time t,
                              bool at_source) {
  if (!OverlayGraph::origin_is_shortcut(origin)) {
    // A flat edge: evaluate exactly like the flat relax loop (the overlay
    // pool's prefix is the base pool, so the word needs no translation).
    const std::uint32_t w = g_.edge_word(origin);
    const Time arr = at_source && TdGraph::word_is_const(w)
                         ? t
                         : ov_->arrival_by_word(w, t);
    path_.push_back(g_.edge_head(origin));
    ready_.push_back(arr);
    return arr;
  }
  const OverlayGraph::ShortcutRec& r =
      ov_->shortcut(origin & ~OverlayGraph::kShortcutBit);
  if (r.mid != kInvalidNode) {  // link: tail -> mid -> head
    const Time tm = replay_origin(r.a, tail, t, at_source);
    return replay_origin(r.b, r.mid, tm, false);
  }
  // Merge: ride whichever branch wins at this departure time (ties to the
  // older branch — the merged TTF's value is the min of the two, so the
  // chosen branch reproduces the query's arrival exactly).
  const Time ta = origin_arrival(r.a, t, at_source);
  const Time tb = origin_arrival(r.b, t, at_source);
  return replay_origin(ta <= tb ? r.a : r.b, tail, t, at_source);
}

bool TimeQuery::extract_journey_into(StationId source, Time departure,
                                     StationId target, Journey& j) {
  assert(source == source_ && departure == departure_ &&
         "extract_journey_into must follow run() with the same query");
  j.source = source;
  j.target = target;
  j.departure = departure;
  j.arrival = kInfTime;
  j.legs.clear();

  const NodeId src = g_.station_node(source);
  const NodeId dst = g_.station_node(target);
  if (dist_.get(dst) == kInfTime) return false;

  path_.clear();
  ready_.clear();
  if (!ov_) {
    // Node-parent chain; the ready times are the query's own labels.
    for (NodeId v = dst; v != kInvalidNode; v = parent_.get(v)) {
      path_.push_back(v);
      ready_.push_back(dist_.get(v));
    }
    std::reverse(path_.begin(), path_.end());
    std::reverse(ready_.begin(), ready_.end());
  } else {
    // Overlay parent chain, then shortcut expansion to the flat node path
    // with forward-replayed ready times.
    edge_path_.clear();
    for (NodeId v = dst; v != src;) {
      const std::uint32_t pe = parent_edge_.get(v);
      if (pe == kNoEdge) return false;  // unreachable tree slot
      edge_path_.push_back(pe);
      v = parent_.get(v);
    }
    path_.push_back(src);
    ready_.push_back(departure);
    Time t = departure;
    NodeId tail = src;
    for (auto it = edge_path_.rbegin(); it != edge_path_.rend(); ++it) {
      t = replay_origin(ov_->edge_origin(*it), tail, t, tail == src);
      tail = ov_->edge_head(*it);
    }
    assert(t == dist_.get(dst) && "replay must reproduce the query arrival");
  }
  j.arrival = dist_.get(dst);
  journey_legs_from_path(tt_, g_, path_, ready_, j);
  return true;
}

}  // namespace pconn
