// OverlayGraph — the product of the time-dependent core contraction
// (algo/contraction.hpp): the station-centric overlay the core-routed query
// engines (TimeQuery, ParallelSpcs) run on.
//
// Contraction removes *route nodes* from the time-dependent graph one by
// one (stations are never contracted — every public query result is a
// station arrival or a station profile, and pinning the stations into the
// core keeps those results byte-identical to the flat graph). Removing a
// node inserts witness-checked shortcut edges between its neighbors whose
// travel-time functions are the *link* of the two bypassed functions;
// parallel shortcuts between the same pair are *merged* (pointwise min).
// Every shortcut TTF is appended into this graph's own TtfPool, whose
// first `num_base_ttfs()` functions are a verbatim copy of the base
// graph's pool — so base edge words keep their numeric value, and the
// overlay shares the SoA/CSR layout and the bucket eval index with the
// flat relax loops.
//
// Two CSRs survive the contraction:
//   * the unified out-CSR ("upward"): a core node's surviving edges (all
//     heads are core), and for a contracted node the out-edges it had at
//     the moment of contraction (all heads ranked higher, or core). A
//     Dijkstra from any core node therefore never leaves the core;
//   * the downward in-CSR: each contracted node's in-edges at contraction
//     time, stored in descending contraction rank. One queue-less sweep
//     over it after a full core run extends exact arrivals to every
//     contracted node (tails are always settled first), which is how the
//     overlay engines reproduce flat one-to-all results at ALL nodes.
//
// Shortcut provenance is kept per edge (`origin`): either a flat TdGraph
// edge id or a shortcut record (link via a contracted middle node, or a
// merge of two parallel shortcuts). Journey extraction replays records
// recursively to recover the exact flat node path.
//
// Boarding-cost convention: every path leaving station S starts with S's
// constant board edge, so a shortcut whose tail is a station folds T(S)
// into its TTF ("shifted" form: a connection departing the route node at D
// with arrival A becomes the point (D - T(S), A - D + T(S))). The engines
// undo the fold at the query source — the model's free first boarding —
// by evaluating source shortcuts at t - T(S); board_shift() exposes the
// per-station constant.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/td_graph.hpp"
#include "graph/ttf_pool.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

/// rank() of nodes that were never contracted.
constexpr std::uint32_t kCoreRank = std::numeric_limits<std::uint32_t>::max();

/// Preprocessing-side counters of one contraction run (bench reporting).
struct ContractionStats {
  std::uint32_t contracted = 0;      // route nodes removed from the core
  std::uint32_t frozen = 0;          // route nodes kept in the core (caps)
  std::uint32_t rounds = 0;          // parallel batch rounds
  std::uint64_t shortcuts = 0;       // shortcut edges in the final overlay
  std::uint64_t merges = 0;          // parallel shortcuts folded by TTF merge
  std::uint64_t witness_dropped = 0; // candidate pairs killed by a witness
  std::uint64_t witness_searches = 0;
  double time_ms = 0.0;
};

class OverlayGraph {
 public:
  using EdgeId = std::uint32_t;

  /// `origin` values with this bit reference a shortcut record; without it
  /// they are flat TdGraph edge ids.
  static constexpr std::uint32_t kShortcutBit = 1u << 31;

  /// Provenance of one shortcut edge. `mid != kInvalidNode`: a link — legs
  /// `a` (tail -> mid) then `b` (mid -> head). `mid == kInvalidNode`: a
  /// merge — the TTF is the pointwise min of branches `a` and `b`, and the
  /// branch actually ridden is decided per departure time by evaluating
  /// both words. `word` is this shortcut's own packed pool entry (used to
  /// evaluate a branch without expanding it).
  struct ShortcutRec {
    std::uint32_t word;
    NodeId mid;
    std::uint32_t a, b;
  };

  // --- topology ---------------------------------------------------------
  NodeId num_nodes() const { return static_cast<NodeId>(rank_.size()); }
  std::size_t num_edges() const { return heads_.size(); }
  std::size_t num_stations() const { return num_stations_; }
  std::size_t num_core_nodes() const { return num_core_; }
  Time period() const { return period_; }

  bool is_core(NodeId v) const { return rank_[v] == kCoreRank; }
  std::uint32_t rank(NodeId v) const { return rank_[v]; }
  bool is_station_node(NodeId v) const { return v < num_stations_; }
  NodeId station_node(StationId s) const { return s; }
  /// T(S) folded into every shortcut leaving station s (see header note).
  Time board_shift(StationId s) const { return board_shift_[s]; }

  // --- SoA access (same shape as TdGraph; the relax loops stream these) --
  EdgeId edge_begin(NodeId v) const { return edge_begin_[v]; }
  EdgeId edge_end(NodeId v) const { return edge_begin_[v + 1]; }
  NodeId edge_head(EdgeId e) const { return heads_[e]; }
  std::uint32_t edge_word(EdgeId e) const { return words_[e]; }
  std::uint32_t edge_origin(EdgeId e) const { return origins_[e]; }
  const NodeId* heads_data() const { return heads_.data(); }
  const std::uint32_t* words_data() const { return words_.data(); }

  const TtfPool& ttfs() const { return ttfs_; }
  /// Functions [0, num_base_ttfs) are the base pool copied verbatim, so
  /// flat edge words evaluate unchanged against this pool.
  std::uint32_t num_base_ttfs() const { return num_base_ttfs_; }
  /// Edge count of the base graph this overlay was contracted from: the
  /// range flat-edge origins index (the snapshot loader validates it,
  /// the engine constructors assert it matches the graph they are given).
  std::uint32_t num_base_edges() const { return num_base_edges_; }

  Time arrival_by_word(std::uint32_t w, Time t) const {
    if (TdGraph::word_is_const(w)) return t + TdGraph::word_weight(w);
    return ttfs_.arrival(w, t);
  }
  void prefetch_edge_ttf(EdgeId e) const {
    const std::uint32_t w = words_[e];
    if (!TdGraph::word_is_const(w)) ttfs_.prefetch_points(w);
  }

  // --- shortcut provenance ----------------------------------------------
  std::size_t num_shortcuts() const { return shortcuts_.size(); }
  const ShortcutRec& shortcut(std::uint32_t id) const { return shortcuts_[id]; }
  static bool origin_is_shortcut(std::uint32_t o) {
    return (o & kShortcutBit) != 0;
  }

  /// Dense key of an origin value in the provenance reverse index: flat
  /// edge ids map to themselves, shortcut records to num_base_edges() +
  /// record id. One contiguous key space so the index is a plain CSR.
  std::uint32_t origin_key(std::uint32_t o) const {
    return origin_is_shortcut(o) ? num_base_edges_ + (o & ~kShortcutBit) : o;
  }
  std::uint32_t num_origin_keys() const {
    return num_base_edges_ + static_cast<std::uint32_t>(shortcuts_.size());
  }

  /// Reverse edge of the shortcut provenance DAG: for each origin key, the
  /// shortcut records with that origin as their `a` or `b` leg. The
  /// incremental re-linker (algo/contraction.hpp) seeds a traversal at the
  /// flat edges a delay event changed and closes over dependents to find
  /// every shortcut TTF that must be recomputed; everything outside the
  /// closure is spliced into the new epoch verbatim (src/live/).
  struct ProvenanceIndex {
    std::vector<std::uint32_t> begin;  // num_origin_keys() + 1
    std::vector<std::uint32_t> recs;   // dependent shortcut record ids
    std::span<const std::uint32_t> dependents(std::uint32_t key) const {
      return {recs.data() + begin[key], begin[key + 1] - begin[key]};
    }
  };
  /// Builds the reverse index by counting sort over the records — O(edges +
  /// records), no per-key allocation. Records reference only earlier
  /// records (validated on load), so dependents of key k all have id > k's
  /// record when k is itself a shortcut.
  ProvenanceIndex build_provenance_index() const;

  // --- downward sweep (contracted nodes, descending rank) ----------------
  std::size_t num_contracted() const { return down_node_.size(); }
  NodeId down_node(std::size_t i) const { return down_node_[i]; }
  std::uint32_t down_begin(std::size_t i) const { return down_begin_[i]; }
  std::uint32_t down_end(std::size_t i) const { return down_begin_[i + 1]; }
  NodeId down_tail(std::uint32_t e) const { return down_tails_[e]; }
  std::uint32_t down_word(std::uint32_t e) const { return down_words_[e]; }

  /// down_pos(v) of nodes that are core (never swept).
  static constexpr std::uint32_t kNoDownPos =
      std::numeric_limits<std::uint32_t>::max();
  /// Inverse of down_node(): v's position in the down-sweep order, or
  /// kNoDownPos for core nodes. Built once by the contraction (and stored
  /// in snapshots), so both sweeping engines — the per-query
  /// settle_contracted and the partitioned SPCS sweep — share one map
  /// instead of each building its own.
  std::uint32_t down_pos(NodeId v) const { return down_pos_[v]; }

  const ContractionStats& build_stats() const { return build_stats_; }

  /// Every array's bytes, the pool's included (tests check where adopted
  /// arrays live).
  std::vector<std::span<const std::byte>> array_bytes() const;

  /// Overlay footprint in bytes: CSRs, provenance and the pooled TTFs.
  std::size_t memory_bytes() const;
  /// Shortcut-only share of the pool's points (bench reporting).
  std::size_t shortcut_points() const;

 private:
  friend class ContractionBuilder;  // algo/contraction.cpp
  friend class OverlayRelinker;     // algo/contraction.cpp (re-link)
  friend class MappedSnapshot;      // timetable/snapshot.hpp
  friend void save_snapshot(const Timetable&, const OverlayGraph*,
                            const std::string&);

  std::size_t num_stations_ = 0;
  std::size_t num_core_ = 0;
  Time period_ = kDayseconds;
  std::uint32_t num_base_ttfs_ = 0;
  std::uint32_t num_base_edges_ = 0;
  ConstArray<std::uint32_t> rank_;           // per node; kCoreRank = core
  ConstArray<Time> board_shift_;             // per station: T(S)
  ConstArray<std::uint32_t> edge_begin_;     // unified out-CSR, n+1
  ConstArray<NodeId> heads_;
  ConstArray<std::uint32_t> words_;          // packed const-or-ttf words
  ConstArray<std::uint32_t> origins_;        // flat edge id | shortcut rec
  ConstArray<ShortcutRec> shortcuts_;
  ConstArray<NodeId> down_node_;             // contracted, descending rank
  ConstArray<std::uint32_t> down_begin_;     // |down_node_| + 1
  ConstArray<NodeId> down_tails_;
  ConstArray<std::uint32_t> down_words_;
  ConstArray<std::uint32_t> down_pos_;       // per node; kNoDownPos = core
  TtfPool ttfs_;
  ContractionStats build_stats_;
};

/// Throws std::runtime_error unless `ov` was contracted from (tt, g): the
/// same node space and the base pool as the overlay pool's prefix, or every
/// origin/word reference is garbage; and the same period, or every answer
/// across the wrap is wrong. A throw, not an assert: a stale cache bound to
/// a regenerated dataset is a runtime data error and must fail loud in
/// Release builds too.
void require_overlay_matches(const Timetable& tt, const TdGraph& g,
                             const OverlayGraph& ov);

}  // namespace pconn
