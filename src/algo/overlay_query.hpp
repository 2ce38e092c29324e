// Core-routed query engines over the contraction overlay
// (graph/overlay_graph.hpp): ports of TimeQueryT and LcProfileQuery whose
// settle loops run on the overlay's station-centric core. Same queue
// policies, same arena-backed workspace discipline. OverlayTimeQueryT has
// one relax body, the interleaved per-edge loop: a phased gather -> eval ->
// commit body over the shortcut fan measured slower on every preset and
// was deleted (docs/architecture.md "Batch relaxation"). The LC port keeps
// both RelaxMode bodies (algo/relax_batch.hpp).
//
// Exactness: stations are never contracted, so core distances equal flat
// distances at every departure time. OverlayTimeQueryT reports arrivals at
// all stations; settle_contracted() extends them to every flat node with
// one queue-less rank-descending sweep over the downward CSR (used by the
// differential tests, which compare ALL nodes byte-for-byte against the
// flat engine). OverlayLcProfileQuery's station profiles are canonical
// reduced profiles of the exact travel-time functions, hence byte-
// identical to the flat LC baseline.
//
// Source convention: the model's first boarding is free. Flat engines
// rewrite the source's constant board words to zero; shortcut TTFs out of
// a station have T(S) folded in ("shifted" form), so the overlay engines
// evaluate them at t - T(S) — same function, board discounted.
#pragma once

#include <vector>

#include "algo/counters.hpp"
#include "algo/journey.hpp"
#include "algo/queue_policy.hpp"
#include "algo/relax_batch.hpp"
#include "algo/workspace.hpp"
#include "graph/overlay_graph.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/epoch_array.hpp"

namespace pconn {

/// Throws std::runtime_error unless `ov` was contracted from (tt, g): same
/// node space and the base pool as the overlay pool's prefix, or every
/// origin/word reference is garbage. A throw, not an assert: a stale cache
/// bound to a regenerated dataset is a runtime data error and must fail
/// loud in Release builds too.
void require_overlay_matches(const Timetable& tt, const TdGraph& g,
                             const OverlayGraph& ov);

/// Template over the scalar-time queue policy; definitions in
/// overlay_query.cpp instantiate the two shipped policies.
template <typename Queue = TimeBinaryQueue>
class OverlayTimeQueryT {
 public:
  /// Needs the flat graph alongside the overlay for journey replay (flat
  /// edge words, route-node decoding). `ws` (optional) places all scratch
  /// in the workspace's arena; the engine must not outlive it.
  OverlayTimeQueryT(const Timetable& tt, const TdGraph& g,
                    const OverlayGraph& ov, QueryWorkspace* ws = nullptr);

  /// One-to-all over the overlay core. Results stay valid until the next
  /// run. If `target` is given, stops once the target station is settled.
  void run(StationId source, Time departure,
           StationId target = kInvalidStation);

  /// Extends the last full run (no target stop) to every contracted node:
  /// one rank-descending pass over the downward CSR, no queue. After it,
  /// arrival_at_node matches the flat TimeQueryT at ALL nodes. Idempotent:
  /// a second call before the next run() changes neither labels nor stats.
  void settle_contracted();

  Time arrival_at(StationId s) const { return dist_.get(ov_.station_node(s)); }
  Time arrival_at_node(NodeId v) const { return dist_.get(v); }
  /// The label array itself, read-only — the multi-query engine transposes
  /// it through the EpochArray raw views.
  const EpochArray<Time>& labels() const { return dist_; }
  /// Predecessor node / overlay edge of the last relax that set v's label
  /// (the multi-query differential tests compare these lane by lane).
  NodeId parent(NodeId v) const { return parent_.get(v); }
  std::uint32_t parent_edge(NodeId v) const { return parent_edge_.get(v); }

  /// Journey extraction: expands the shortcut edges on the parent path
  /// back to the exact flat node sequence (link records recurse, merge
  /// records pick the branch whose evaluation wins at the replay time) and
  /// derives legs through the same code path as the flat extractor.
  /// Returns false when the target is unreachable.
  bool extract_journey_into(StationId source, Time departure, StationId target,
                            Journey& out);

  const QueryStats& stats() const { return stats_; }

  /// No-op: the engine has one relax body, so a session's RelaxMode (which
  /// only the LC engines read) changes nothing here. Kept so callers that
  /// forward QuerySessionOptions::relax_options() still compile.
  void set_relax_options(RelaxMode) {}

  /// Arrival via an overlay word entered at `t` at the last run's source,
  /// undoing the folded board cost (see header note).
  Time source_arrival(std::uint32_t w, Time t) const;

 private:
  /// Arrival via an origin (flat edge or shortcut record) — merge-branch
  /// evaluation during journey replay.
  Time origin_arrival(std::uint32_t origin, Time t, bool at_source) const;
  /// Replays an origin from `tail` at time `t`, appending the flat nodes
  /// and ready times beyond the tail; returns the arrival at the head.
  Time replay_origin(std::uint32_t origin, NodeId tail, Time t, bool at_source);

  const Timetable& tt_;
  const TdGraph& g_;
  const OverlayGraph& ov_;
  Queue heap_;
  // Same invariant as the flat TimeQueryT: pop keys are monotone and no
  // edge goes back in time, so `dist <= key` subsumes a settled array.
  EpochArray<Time> dist_;
  EpochArray<NodeId> parent_;
  EpochArray<std::uint32_t> parent_edge_;  // overlay EdgeId of the relax
  StationId source_ = kInvalidStation;
  Time departure_ = 0;
  bool full_run_ = false;  // last run had no target stop
  bool swept_ = false;     // settle_contracted() ran since the last run
  QueryStats stats_;
  // Journey replay scratch (arena-backed; grows to a high-water mark).
  std::vector<NodeId, ArenaAllocator<NodeId>> path_;
  std::vector<Time, ArenaAllocator<Time>> ready_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> edge_path_;
};

using OverlayTimeQuery = OverlayTimeQueryT<>;

/// The label-correcting profile baseline ported onto the overlay core.
/// Station profiles are byte-identical to the flat LcProfileQuery (both
/// converge to the canonical reduced representation of the exact function).
/// Binary heap only, like the flat engine.
///
/// Deliberately a sibling implementation of LcProfileQuery, not a shared
/// template over the graph type: the overlay loop carries the source
/// board-shift through the link kernel, and templating the flat engine's
/// hot loop for that would perturb measured code the benches gate.
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
  TimeBinaryQueue heap_;
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
