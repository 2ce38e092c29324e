// The realistic time-dependent model (Pyrga et al. [23], paper Section 2).
//
// For every station a *station node*; for every route and every position
// along that route a *route node*. Edges:
//   * board:  station  -> route node, constant weight T(S) (transfer time);
//   * alight: route node -> station, constant weight 0;
//   * travel: route node -> next route node of the same route, a
//     time-dependent Ttf holding one connection point per trip.
// Transfers between trains therefore cost exactly T(S); staying seated is
// free. Query algorithms that start at a station S skip the boarding cost
// at S itself (the paper's SPCS starts directly on route nodes).
//
// Storage is structure-of-arrays, tuned for the relax loop (the system's
// hottest code): per edge only a 4-byte head and a 4-byte packed
// ttf-or-weight word (top bit set = constant weight in the low 31 bits,
// else a TtfPool index), so an edge block streams at 8 bytes/edge instead
// of the seed's 12-byte AoS records, and the head array can be walked —
// and prefetched — without touching weights. All travel-time functions
// live in one TtfPool (graph/ttf_pool.hpp): contiguous points plus an O(1)
// bucket-indexed eval that replaces the per-relax binary search. The
// `Edge` struct survives as a decoded per-edge view so non-hot callers and
// tests keep the familiar `for (const TdGraph::Edge& e : g.out_edges(v))`.
//
// Every array is a ConstArray, so copies share them. A graph that serves
// beside a contraction overlay owns no pool: the overlay's pool starts
// with this graph's functions verbatim (OverlayGraph::num_base_ttfs), and
// the graph reads that prefix in place (adopt(), rebased()).
#pragma once

#include <cstdint>
#include <span>

#include "graph/ttf_pool.hpp"
#include "timetable/timetable.hpp"
#include "util/const_array.hpp"
#include "util/function_ref.hpp"

namespace pconn {

class OverlayGraph;

constexpr std::uint32_t kNoTtf = std::numeric_limits<std::uint32_t>::max();

class TdGraph {
 public:
  using EdgeId = std::uint32_t;

  /// Decoded view of one edge (storage is SoA; this is assembled on
  /// access). Field semantics match the seed AoS record: ttf == kNoTtf
  /// means a constant `weight`, otherwise `ttf` indexes the pool and
  /// weight is 0.
  struct Edge {
    NodeId head;
    std::uint32_t ttf;
    Time weight;
  };

  // --- packed ttf-or-weight word ----------------------------------------
  // The encoding is shared with TtfPool::arrival_entry, which evaluates
  // constant words inline.
  static constexpr std::uint32_t kConstFlag = TtfPool::kConstFlag;
  static bool word_is_const(std::uint32_t w) { return (w & kConstFlag) != 0; }
  static Time word_weight(std::uint32_t w) {
    return static_cast<Time>(w & ~kConstFlag);
  }
  static std::uint32_t word_ttf(std::uint32_t w) { return w; }

  /// The graph of `tt` with a pool of its own.
  static TdGraph build(const Timetable& tt);

  /// The graph of `tt` reading `ov`'s base functions in place: a shard
  /// adopting a mapped snapshot allocates no pool. The structure walk is
  /// build()'s; it recomputes every travel function from `tt` and compares
  /// it point for point with the overlay's, so an overlay contracted from
  /// another timetable (or another epoch of this one) is refused. Throws
  /// LoadError: kBadCount when the counts, period or transfer times
  /// disagree, kCorrupt on the first function that differs.
  static TdGraph adopt(const Timetable& tt, const OverlayGraph& ov);

  /// This graph reading `ov`'s base functions in place of its own pool,
  /// which the result drops. `ov` must have been contracted or re-linked
  /// from this graph: its base prefix is checked byte for byte against the
  /// own pool (std::logic_error otherwise). The structure arrays are
  /// shared with this graph.
  TdGraph rebased(const OverlayGraph& ov) const;

  NodeId num_nodes() const { return static_cast<NodeId>(station_of_.size()); }
  std::size_t num_edges() const { return heads_.size(); }
  std::size_t num_stations() const { return num_stations_; }
  Time period() const { return period_; }

  bool is_station_node(NodeId v) const { return v < num_stations_; }
  /// st(u): the station a node belongs to.
  StationId station_of(NodeId v) const { return station_of_[v]; }
  NodeId station_node(StationId s) const { return s; }
  NodeId route_node(RouteId r, std::uint32_t pos) const {
    return route_node_begin_[r] + pos;
  }
  /// The route node an elementary connection departs from.
  NodeId departure_node(const Timetable& tt, const Connection& c) const {
    return route_node(tt.trip(c.train).route, c.pos);
  }

  // --- SoA access (the relax loops stream these directly) ---------------
  EdgeId edge_begin(NodeId v) const { return edge_begin_[v]; }
  EdgeId edge_end(NodeId v) const { return edge_begin_[v + 1]; }
  NodeId edge_head(EdgeId e) const { return heads_[e]; }
  std::uint32_t edge_word(EdgeId e) const { return ttf_or_weight_[e]; }
  const NodeId* heads_data() const { return heads_.data(); }
  const std::uint32_t* words_data() const { return ttf_or_weight_.data(); }

  const TtfPool& ttfs() const { return ttfs_; }

  /// Absolute arrival via a packed ttf-or-weight word when reaching the
  /// tail at absolute time t — the interleaved relax-loop entry point.
  Time arrival_by_word(std::uint32_t w, Time t) const {
    if (word_is_const(w)) return t + word_weight(w);
    return ttfs_.arrival(word_ttf(w), t);
  }
  /// Prefetch hint for edge e's travel-time points (no-op on constant
  /// edges: the weight is already in the streamed word).
  void prefetch_edge_ttf(EdgeId e) const {
    const std::uint32_t w = ttf_or_weight_[e];
    if (!word_is_const(w)) ttfs_.prefetch_points(word_ttf(w));
  }

  // --- decoded compat view ----------------------------------------------
  Edge edge(EdgeId e) const {
    const std::uint32_t w = ttf_or_weight_[e];
    if (word_is_const(w)) return {heads_[e], kNoTtf, word_weight(w)};
    return {heads_[e], word_ttf(w), 0};
  }

  class EdgeIterator {
   public:
    EdgeIterator(const TdGraph* g, EdgeId e) : g_(g), e_(e) {}
    Edge operator*() const { return g_->edge(e_); }
    EdgeIterator& operator++() {
      ++e_;
      return *this;
    }
    bool operator!=(const EdgeIterator& o) const { return e_ != o.e_; }
    bool operator==(const EdgeIterator& o) const { return e_ == o.e_; }

   private:
    const TdGraph* g_;
    EdgeId e_;
  };
  struct EdgeRange {
    EdgeIterator first, last;
    EdgeIterator begin() const { return first; }
    EdgeIterator end() const { return last; }
  };
  EdgeRange out_edges(NodeId v) const {
    return {EdgeIterator(this, edge_begin(v)), EdgeIterator(this, edge_end(v))};
  }

  /// Absolute arrival at e.head when reaching the tail at absolute time t
  /// (compat overload for the decoded view).
  Time arrival_via(const Edge& e, Time t) const {
    if (e.ttf == kNoTtf) return t + e.weight;
    return ttfs_.arrival(e.ttf, t);
  }

  /// Rough memory footprint of the structure in bytes (bench reporting).
  std::size_t memory_bytes() const;

 private:
  /// The structure walk build() and adopt() share: node numbering, the
  /// CSR in edge order, and each travel edge's normalized function handed
  /// to `ttf`, which returns its pool index. Functions come in (route,
  /// position) order — the numbering every overlay's base prefix keeps.
  static TdGraph walk(const Timetable& tt,
                      FunctionRef<std::uint32_t(std::span<const TtfPoint>)> ttf);

  std::size_t num_stations_ = 0;
  Time period_ = kDayseconds;
  ConstArray<StationId> station_of_;          // per node
  ConstArray<NodeId> route_node_begin_;       // per route
  ConstArray<std::uint32_t> edge_begin_;      // CSR offsets, num_nodes()+1
  ConstArray<NodeId> heads_;                  // per edge
  ConstArray<std::uint32_t> ttf_or_weight_;   // per edge, packed (see top)
  TtfPool ttfs_;
};

}  // namespace pconn
