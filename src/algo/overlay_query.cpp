#include "algo/overlay_query.hpp"

#include <algorithm>
#include <stdexcept>

namespace pconn {

void require_overlay_matches(const Timetable& tt, const TdGraph& g,
                             const OverlayGraph& ov) {
  if (ov.num_nodes() != g.num_nodes() ||
      ov.num_stations() != tt.num_stations() ||
      ov.num_base_ttfs() != g.ttfs().size() ||
      ov.num_base_edges() != g.num_edges()) {
    throw std::runtime_error(
        "overlay: graph mismatch (contracted from a different dataset?)");
  }
}

// ---------------------------------------------------------------------------
// OverlayLcProfileQuery

OverlayLcProfileQuery::OverlayLcProfileQuery(const Timetable& tt,
                                             const OverlayGraph& ov,
                                             QueryWorkspace* ws)
    : tt_(tt),
      ov_(ov),
      heap_(scratch_alloc(ws)),
      fresh_(ArenaAllocator<std::uint8_t>(scratch_alloc(ws))),
      touched_(ArenaAllocator<NodeId>(scratch_alloc(ws))),
      dirty_(ArenaAllocator<std::uint8_t>(scratch_alloc(ws))),
      init_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))),
      cand_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))),
      union_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))),
      merged_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))) {
  // Same loud dataset-mismatch rejection as the time engine. No TdGraph
  // here, but its node/edge/TTF counts are determined by the timetable
  // (stations + one node per route stop; per route of n stops: n alights,
  // n-1 boards, n-1 travel TTF edges), so the check loses nothing.
  std::size_t nodes = tt.num_stations(), edges = 0, funcs = 0;
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    const std::size_t stops = tt.route(r).stops.size();
    nodes += stops;
    edges += 3 * stops - 2;
    funcs += stops - 1;
  }
  if (ov.num_stations() != tt.num_stations() || ov.period() != tt.period() ||
      ov.num_nodes() != nodes || ov.num_base_edges() != edges ||
      ov.num_base_ttfs() != funcs) {
    throw std::runtime_error(
        "overlay: timetable mismatch (contracted from a different dataset?)");
  }
  heap_.reset_capacity(ov.num_nodes());
  labels_.resize(ov.num_nodes());
  pending_.resize(ov.num_nodes());
  fresh_.assign(ov.num_nodes(), 0);
  dirty_.assign(ov.num_nodes(), 0);
}

void OverlayLcProfileQuery::run(StationId s) {
  stats_ = QueryStats{};
  heap_.clear();
  for (NodeId v : touched_) {
    labels_[v].clear();
    pending_[v].clear();
    fresh_[v] = 0;
    dirty_[v] = 0;
  }
  touched_.clear();
  auto touch = [&](NodeId v) {
    if (!dirty_[v]) {
      dirty_[v] = 1;
      touched_.push_back(v);
    }
  };

  auto enqueue = [&](NodeId v, Time key) {
    switch (heap_.push_or_decrease(v, key)) {
      case QueuePush::kPushed:
        stats_.pushed++;
        break;
      case QueuePush::kDecreased:
        stats_.decreased++;
        break;
      case QueuePush::kUnchanged:
        break;
    }
  };

  const NodeId src = ov_.station_node(s);
  const Time period = ov_.period();
  const Time shift = ov_.board_shift(s);
  {
    init_.clear();
    for (const Connection& c : tt_.outgoing(s)) {
      if (init_.empty() || init_.back().dep != c.dep) {
        init_.push_back({c.dep, c.dep});
      }
    }
    if (init_.empty()) return;
    reduce_profile_into(init_, tt_.period(), merged_);
    labels_[src].assign(merged_.begin(), merged_.end());
    touch(src);
    fresh_[src] = 1;
    enqueue(src, labels_[src].front().arr);
  }

  while (!heap_.empty()) {
    const NodeId v = heap_.pop().first;
    stats_.settled++;

    // Deferred absorption (see the class comment): fold everything queued
    // at v since its last settle into the label with ONE k-way merge —
    // sort the concatenated candidate runs, one std::merge against the
    // label, one reduction — instead of a pairwise reduce per edge.
    Profile& pend = pending_[v];
    if (!pend.empty()) {
      std::sort(pend.begin(), pend.end(), profile_point_less);
      Profile& lab = labels_[v];
      if (lab.empty()) {
        reduce_profile_into(pend, tt_.period(), merged_);
      } else {
        union_.clear();
        union_.reserve(lab.size() + pend.size());
        std::merge(lab.begin(), lab.end(), pend.begin(), pend.end(),
                   std::back_inserter(union_), profile_point_less);
        reduce_profile_into(union_, tt_.period(), merged_);
      }
      pend.clear();
      if (merged_.size() != lab.size() ||
          !std::equal(merged_.begin(), merged_.end(), lab.begin())) {
        lab.assign(merged_.begin(), merged_.end());
        fresh_[v] = 1;
      }
    }
    // Label unchanged since its last relax: every candidate this settle
    // could emit was already emitted (and is dominated at its head).
    if (!fresh_[v]) continue;
    fresh_[v] = 0;
    stats_.label_points += labels_[v].size();

    const std::uint32_t eb = ov_.edge_begin(v);
    const std::uint32_t ee = ov_.edge_end(v);
    const NodeId* const heads = ov_.heads_data();
    for (std::uint32_t ei = eb; ei < ee; ++ei) {
      if (ei + 1 < ee) ov_.prefetch_edge_ttf(ei + 1);
      const NodeId head = heads[ei];
      const std::uint32_t w = ov_.edge_word(ei);
      const Profile& tail = labels_[v];
      cand_.clear();
      cand_.reserve(tail.size());
      Time cand_min = kInfTime;
      const bool at_src = v == src;
      const bool free_board = at_src && TdGraph::word_is_const(w);
      if (relax_mode_ != RelaxMode::kInterleaved) {
        if (!TdGraph::word_is_const(w)) {
          // The label is the batch dimension (see lc_profile.cpp). At the
          // source the shortcut's folded board cost is undone by entering
          // one period late and landing one period early — a constant
          // offset keeps the entry times ascending for the sorted kernel.
          if (at_src && shift > 0) {
            const Time up = period - shift;
            ov_.ttfs().arrival_tn_sorted_fused(
                TdGraph::word_ttf(w), tail.size(),
                [&](std::size_t k) { return tail[k].arr + up; },
                [&](std::size_t k, Time t) {
                  if (t == kInfTime) return;
                  cand_.push_back({tail[k].dep, t - period});
                });
          } else {
            ov_.ttfs().arrival_tn_sorted_fused(
                TdGraph::word_ttf(w), tail.size(),
                [&](std::size_t k) { return tail[k].arr; },
                [&](std::size_t k, Time t) {
                  if (t == kInfTime) return;
                  cand_.push_back({tail[k].dep, t});
                });
          }
        } else {
          const Time delta_w = free_board ? 0 : TdGraph::word_weight(w);
          cand_.resize(tail.size());
          for (std::size_t k = 0; k < tail.size(); ++k) {
            cand_[k] = {tail[k].dep, tail[k].arr + delta_w};
          }
        }
        if (!cand_.empty()) cand_min = cand_.front().arr;
      } else {
        for (const ProfilePoint& p : tail) {
          Time t;
          if (free_board) {
            t = p.arr;
          } else if (at_src && !TdGraph::word_is_const(w) && shift > 0) {
            const Time raw =
                ov_.ttfs().arrival(TdGraph::word_ttf(w),
                                   p.arr + period - shift);
            t = raw == kInfTime ? kInfTime : raw - period;
          } else {
            t = ov_.arrival_by_word(w, p.arr);
          }
          if (t == kInfTime) continue;
          cand_.push_back({p.dep, t});
          cand_min = std::min(cand_min, t);
        }
      }
      if (cand_.empty()) continue;
      stats_.relaxed++;

      Profile& head_pend = pending_[head];
      Profile& label = labels_[head];
      if (!fresh_[head] && cand_.size() >= kLcEagerFoldMinRun) {
        // First improving run since the head's last relax, and long enough
        // to amortize re-reducing the whole label: merge eagerly, exactly
        // the pairwise path — it keeps the label fresh, so the dominance
        // tests below stay sharp. Shorter runs fall through to the
        // deferred pile (kLcEagerFoldMinRun, graph/profile.hpp) so many
        // tiny shortcut-fan runs fold in one settle-time k-way merge.
        if (label.empty()) {
          reduce_profile_into(cand_, tt_.period(), merged_);
        } else {
          union_.clear();
          union_.reserve(label.size() + cand_.size());
          std::merge(label.begin(), label.end(), cand_.begin(), cand_.end(),
                     std::back_inserter(union_), profile_point_less);
          reduce_profile_into(union_, tt_.period(), merged_);
        }
        if (merged_.size() == label.size() &&
            std::equal(merged_.begin(), merged_.end(), label.begin())) {
          continue;
        }
        label.assign(merged_.begin(), merged_.end());
        fresh_[head] = 1;
        touch(head);
        enqueue(head, cand_min);
        continue;
      }

      // Burst case (a second run before the head settles — shortcut fans
      // converging on a hub): defer into the head's pending pile, which
      // its next settle folds in with one k-way merge. Dominance filter
      // first: a reduced label's arrivals ascend with departures, so the
      // arrival of the first label point departing at-or-after c.dep is
      // the suffix minimum c must beat (plus the cyclic wrap bound) to
      // survive the union reduce. Dominated points can never un-dominate
      // — labels only improve — and never change which label points
      // survive, so dropping them here is exact; a fully dominated run
      // leaves the label unchanged and needs no queue round at all.
      Time enq_min = kInfTime;
      if (label.empty()) {
        head_pend.insert(head_pend.end(), cand_.begin(), cand_.end());
        enq_min = cand_min;
      } else {
        const Time wrap_min = label.front().arr + period;
        std::size_t li = 0;
        for (const ProfilePoint& c : cand_) {
          while (li < label.size() && label[li].dep < c.dep) ++li;
          Time bound = li < label.size() ? label[li].arr : kInfTime;
          bound = std::min(bound, wrap_min);
          if (c.arr >= bound) continue;
          head_pend.push_back(c);
          enq_min = std::min(enq_min, c.arr);
        }
      }
      if (enq_min == kInfTime) continue;  // fully dominated
      touch(head);
      enqueue(head, enq_min);
    }
  }
}

}  // namespace pconn
