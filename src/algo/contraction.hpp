// Time-dependent core contraction (in the spirit of time-dependent
// contraction hierarchies, adapted to the periodic public-transit model).
//
// contract_graph() removes route nodes from the time-dependent graph in
// cost order and emits the OverlayGraph (graph/overlay_graph.hpp) the
// core-routed query engines run on. The machinery, in brief:
//
//   * node ordering — a lazy-update priority queue (LazyDAryHeap at
//     arity 4) keyed by edge difference and shortcut depth:
//     key = 8 * (in*out - in - out) + 2 * level, recomputed at pop and
//     reinserted when stale (the classic lazy CH rule). Stations are never
//     candidates;
//   * parallel rounds — an independent batch (no two selected nodes
//     adjacent) is drawn from the queue and simulated concurrently on the
//     ThreadPool, one arena-backed scratch workspace per worker. Workers
//     claim the batch's nodes from an atomic cursor, and the pool's
//     workers spin between rounds instead of parking
//     (util/thread_pool.hpp): a round's serial phase is shorter than a
//     wake-up. Commits stay serial, so the result is byte-identical
//     for every thread count;
//   * witness-bounded shortcuts — each neighbor pair (u, v, w) first runs
//     a settle-capped upper-bound Dijkstra (per-edge maximum travel times)
//     from u avoiding v: when that bound is <= the pair's minimum linked
//     travel time the shortcut can never win at any departure time and is
//     dropped. Surviving pairs link their TTFs (link_edge_ttfs below, an
//     arrival_tn_sorted-style composition) and shortcuts landing on an
//     existing shortcut of the same pair are merged (pointwise min =
//     point-set union + cyclic domination pruning);
//   * core freeze — a node whose contraction would exceed the shortcut or
//     hop caps simply stays in the core. Exactness never depends on the
//     caps; they only trade preprocessing/graph size against query speed.
#pragma once

#include <cstdint>

#include "graph/overlay_graph.hpp"
#include "graph/td_graph.hpp"
#include "graph/ttf.hpp"
#include "graph/ttf_pool.hpp"
#include "timetable/timetable.hpp"
#include "util/fault_injector.hpp"

namespace pconn {

/// min(std::thread::hardware_concurrency(), the default batch_size), and
/// at least 1: the default of OverlayContractionOptions::threads.
unsigned default_contraction_threads();

struct OverlayContractionOptions {
  /// Worker threads for the simulation phase (commits are serial; the
  /// overlay is identical for every value). Defaults to the machine's
  /// cores, capped at the default batch_size: a round has no more nodes
  /// to hand out. More threads than nodes is allowed; the extra workers
  /// claim nothing that round.
  unsigned threads = default_contraction_threads();
  /// Independent nodes ordered per parallel round. Fixed (not scaled by
  /// `threads`) so the contraction order — and thus the overlay — does not
  /// depend on the thread count.
  std::uint32_t batch_size = 32;
  /// Freeze a node if contracting it would insert more shortcut edges.
  std::uint32_t max_new_edges = 64;
  /// Freeze a node whose surviving shortcuts exceed the edges it removes
  /// by more than this — the core-size/query-speed dial: sparse railway
  /// hubs freeze early (their fan-outs would outgrow the settled-node
  /// savings), dense bus chains contract away entirely.
  std::int32_t max_edge_diff = 0;
  /// Freeze a node if a required shortcut would span more flat edges.
  std::uint32_t max_hops = 24;
  /// Settle cap of each witness search (0 disables witnessing — every
  /// candidate shortcut is kept; still exact, just bigger). Live overlays
  /// MUST contract with 0: witness decisions bake travel-time bounds into
  /// the overlay's *structure*, so a later delay could invalidate them and
  /// incremental re-link (relink_overlay below) would no longer reproduce
  /// what a fresh contraction builds.
  std::uint32_t witness_settles = 48;
  /// Optional deterministic fault hook: checked once per node simulated on
  /// a contraction worker (FaultInjector::Site::kContractionWorker). The
  /// injected exception surfaces at contract_graph's caller via the
  /// ThreadPool join. Null in production.
  FaultInjector* faults = nullptr;
};

/// Runs the contraction and returns the overlay. Deterministic in
/// (tt, g, opt ignoring threads).
OverlayGraph contract_graph(const Timetable& tt, const TdGraph& g,
                            const OverlayContractionOptions& opt = {});

// --- TTF composition primitives (exposed for the property tests) ---------

/// Link: the exact travel-time function of traversing word `a` and then
/// word `b` (packed TdGraph words against `pool`), as experienced at a's
/// tail. Constant words compose by shifting departures/durations; a
/// leading TTF evaluates the second leg at its (ascending) arrival times
/// via the pool's sorted-merge kernel. The result is pruned (FIFO).
/// At least one word must be non-constant.
Ttf link_edge_ttfs(const TtfPool& pool, std::uint32_t a, std::uint32_t b);

/// Merge: the pointwise minimum of two non-constant words — the union of
/// their connection points with dominated points pruned.
Ttf merge_edge_ttfs(const TtfPool& pool, std::uint32_t a, std::uint32_t b);

/// [min over t, max over t] of a word's travel time (constant words:
/// weight twice; empty functions: {kInfTime, kInfTime}). The witness
/// search's edge bounds.
std::pair<Time, Time> word_cost_bounds(const TtfPool& pool, std::uint32_t w,
                                       Time period);

// --- incremental re-link (the live-update fast path, src/live/) -----------
//
// A delay event perturbs the travel-time functions of one route's flat
// edges but usually leaves the graph's *structure* untouched. When the old
// overlay was contracted without witness pruning, every structural decision
// the contraction made — the lazy ordering keys (in/out degree + level),
// the freeze caps, which candidate pairs were kept — depends only on the
// topology and on which functions are empty. If the new graph has identical
// topology, identical edge words, and an identical emptiness pattern, a
// fresh contraction would therefore rebuild the *same* overlay structure
// with the same shortcut records in the same order; only the TTF payloads
// differ. relink_overlay exploits that: it diffs the base pools, closes the
// changed flat edges over the shortcut provenance DAG (the reverse index in
// graph/overlay_graph.hpp), recomputes exactly the affected shortcut TTFs
// with the same link/merge kernels in record order (records only reference
// earlier records, so record order is a topological order of the DAG), and
// splices every unchanged function range into the new pool verbatim
// (TtfPoolBuilder::append_copy); every structure array is shared with the
// old overlay, not copied. The result is byte-identical to re-contracting
// from scratch — tests/live_test.cpp proves it at every node — at a
// fraction of the cost (bench/bench_liveupdate.cpp gates the ratio).

enum class RelinkStatus : std::uint8_t {
  kRelinked = 0,           // overlay valid, byte-identical to re-contraction
  kStructureChanged = 1,   // topology/words/emptiness differ, or the old
                           // overlay was witness-pruned: full rebuild needed
  kBlastRadiusExceeded = 2,  // affected shortcuts exceed the cap
  kDeadlineExceeded = 3,     // ran past the deadline mid-recompute
};

struct RelinkOptions {
  /// Abort with kBlastRadiusExceeded when more shortcut records than this
  /// are affected — the knee where recomputing approaches a full rebuild
  /// and the degradation path (flat engines + background re-contraction)
  /// is the better trade.
  std::uint32_t blast_radius_cap = std::numeric_limits<std::uint32_t>::max();
  /// Wall-clock budget in ms; 0 disables. Checked between recomputes, so a
  /// single huge TTF can overshoot by one link/merge.
  double deadline_ms = 0.0;
  /// Deterministic fault hook (kRelinkShortcut, kPoolAppend, kDeadline
  /// sites); injected exceptions propagate to the caller mid-rebuild, which
  /// is exactly what the degradation tests exercise. Null in production.
  FaultInjector* faults = nullptr;
};

struct RelinkStats {
  std::uint32_t changed_base_ttfs = 0;   // base functions whose points differ
  std::uint32_t changed_flat_edges = 0;  // flat edges riding a changed TTF
  std::uint32_t affected_shortcuts = 0;  // provenance closure size
  std::uint32_t recomputed_functions = 0;  // re-added base + relinked shortcut
  std::uint64_t copied_points = 0;       // spliced verbatim via append_copy
  std::uint64_t recomputed_points = 0;   // rebuilt through link/merge
  double time_ms = 0.0;
};

struct RelinkResult {
  RelinkStatus status = RelinkStatus::kStructureChanged;
  RelinkStats stats;
  OverlayGraph overlay;  // meaningful only when status == kRelinked
};

/// Incrementally re-links `old_ov` (contracted from (tt_old-equivalent,
/// g_old)) against the perturbed graph `g_new`. `tt` is the NEW timetable
/// (only its period/transfer times are consulted; both must be unchanged —
/// anything else reports kStructureChanged). Never throws on its own;
/// injected faults (opt.faults) and allocation failures propagate.
RelinkResult relink_overlay(const Timetable& tt, const TdGraph& g_new,
                            const TdGraph& g_old, const OverlayGraph& old_ov,
                            const RelinkOptions& opt = {});

}  // namespace pconn
