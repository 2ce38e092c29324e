// The label-correcting profile baseline over the contraction overlay
// (graph/overlay_graph.hpp), OverlayLcProfileQuery, and the dataset check
// every overlay-routed engine runs. The overlay's earliest-arrival search
// is TimeQuery built with an overlay (algo/time_query.hpp); the LC port
// stays a separate class (its comment says why), on the same binary heap
// and arena-backed workspace, with both RelaxMode bodies
// (algo/relax_batch.hpp).
//
// Exactness: stations are never contracted, so core distances equal flat
// distances at every departure time, and station profiles are canonical
// reduced profiles of the exact travel-time functions — byte-identical to
// the flat LC baseline.
//
// Source convention: the model's first boarding is free. Flat engines
// rewrite the source's constant board words to zero; shortcut TTFs out of
// a station have T(S) folded in ("shifted" form), so the overlay engines
// evaluate them at t - T(S) — same function, board discounted.
#pragma once

#include <vector>

#include "algo/counters.hpp"
#include "algo/queue_policy.hpp"
#include "algo/relax_batch.hpp"
#include "algo/time_query.hpp"
#include "algo/workspace.hpp"
#include "graph/overlay_graph.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

/// Throws std::runtime_error unless `ov` was contracted from (tt, g): same
/// node space and the base pool as the overlay pool's prefix, or every
/// origin/word reference is garbage. A throw, not an assert: a stale cache
/// bound to a regenerated dataset is a runtime data error and must fail
/// loud in Release builds too.
void require_overlay_matches(const Timetable& tt, const TdGraph& g,
                             const OverlayGraph& ov);

/// The former name of an overlay-routed TimeQuery. Kept only for
/// bench/e2e/ladder.cpp:69-70; goes with that file's next change.
using OverlayTimeQuery = TimeQuery;

/// The label-correcting profile baseline ported onto the overlay core.
/// Station profiles are byte-identical to the flat LcProfileQuery (both
/// converge to the canonical reduced representation of the exact function).
///
/// Deliberately a sibling implementation of LcProfileQuery, not a shared
/// template over the graph type: the overlay loop carries the source
/// board-shift through the link kernel, and templating the flat engine's
/// hot loop for that would perturb measured code the benches gate. (The
/// earliest-arrival search could take an optional overlay because its two
/// loops differed in three lines; these also differ in merge scheduling.)
///
/// Merge scheduling diverges from the flat engine on purpose: a core
/// station's in-fan is many tiny shortcut candidate profiles, and reducing
/// the label once per relaxing edge (the flat protocol) made the pairwise
/// reduce the dominant cost on sparse rail overlays (~0.95x vs flat).
/// The first improving run since a node's last relax still merges eagerly
/// (a fresh label keeps dominance tests sharp); while the node then awaits
/// its settle, further runs only APPEND their points that survive a
/// two-pointer dominance scan against the label to the node's pending
/// buffer (fully dominated runs are dropped without a queue round), and
/// the pop that settles the node folds everything pending into the label
/// with one sort + merge + reduce — a small k-way merge of pre-sorted
/// candidate runs instead of k pairwise ones. Final profiles are
/// unchanged: reduction is order-independent (the canonical reduced
/// fixpoint), dominated points never change which label points survive,
/// a settle whose pending points are all dominated changes nothing and
/// relaxes nothing, and tests/contraction_test.cpp still enforces
/// byte-identity of every station profile against the flat baseline.
class OverlayLcProfileQuery {
 public:
  OverlayLcProfileQuery(const Timetable& tt, const OverlayGraph& ov,
                        QueryWorkspace* ws = nullptr);

  /// One-to-all profile search from s over the core.
  void run(StationId s);

  /// Reduced profile dist(S, t, ·) of the last run.
  const Profile& profile(StationId t) const {
    return labels_[ov_.station_node(t)];
  }

  const QueryStats& stats() const { return stats_; }

  void set_relax_mode(RelaxMode m) { relax_mode_ = m; }
  RelaxMode relax_mode() const { return relax_mode_; }

 private:
  using ScratchProfile =
      std::vector<ProfilePoint, ArenaAllocator<ProfilePoint>>;

  const Timetable& tt_;
  const OverlayGraph& ov_;
  TimeQueue heap_;
  std::vector<Profile> labels_;  // per node; written via assign() only
  // Candidate points queued per node since its last settle (concatenated
  // sorted runs, one per relaxing edge), and whether its label changed
  // since it last relaxed. Capacity persists across runs like labels_.
  std::vector<Profile> pending_;
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> fresh_;
  std::vector<NodeId, ArenaAllocator<NodeId>> touched_;
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> dirty_;
  ScratchProfile init_, cand_, union_, merged_;
  RelaxMode relax_mode_ = RelaxMode::kBatch;
  QueryStats stats_;
};

}  // namespace pconn
