// Batched gather -> eval -> commit edge relaxation
// (docs/architecture.md "Batch relaxation").
//
// An interleaved settle loop evaluates each edge's (expensive) travel-time
// function right before its queue push logic, edge by edge. The batched
// form splits a settle into three phases:
//   1. gather — stream the SoA head/word arrays, run the cheap pre-tests
//      (settled / self-pruning / domination) on the streamed heads, and
//      append the surviving edges' packed words to a batch buffer;
//   2. eval   — evaluate the whole batch with one TtfPool::arrival_n /
//      arrival_tn call (AVX2 gather kernel under runtime dispatch,
//      constant-weight words inline);
//   3. commit — walk the batch *in edge order* and run the queue
//      push/decrease logic against the evaluated arrivals.
// Committing in edge order, and re-running any pre-test whose state the
// commits themselves advance (the overlay time query's dist bound), keeps
// results AND settled/pushed accounting bit-identical to the interleaved
// loop — tests/batch_relax_test.cpp, contraction_test.cpp and
// overlay_spcs_test.cpp prove this differentially for every engine and
// queue policy.
//
// Only engines with a batch dimension have both bodies: SPCS (one settle
// template over both graphs; on the overlay core it batches the shortcut
// fan), flat and overlay LC (the label profile) and the overlay time query
// (the shortcut fan). The flat scalar
// engines (TimeQueryT, McTimeQueryT, TeTimeQueryT) have one interleaved
// body: a flat node carries at most one travel function
// (TdGraph::ttf_out_degree <= 1, graph_test asserts it) and TE weights are
// constants, so there is nothing to batch. The interleaved loop survives
// behind RelaxMode::kInterleaved as the measurement baseline
// (bench_batchrelax) and the differential tests' oracle.
//
// RelaxBatch is the workspace-resident buffer of phase 1/2: engines own
// one, placed in their QueryWorkspace's arena, and reserve() it to the
// graph's maximum out-degree at construction so warm queries never touch
// the allocator (the zero-allocation session guard covers batch mode).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "timetable/types.hpp"
#include "util/arena.hpp"

namespace pconn {

enum class RelaxMode : std::uint8_t {
  kInterleaved,  // seed behaviour: eval and push logic per edge
  kBatch,        // gather -> batch eval -> commit where profitable
                 // (TTF fan-out >= RelaxOptions::batch_min_edges; the
                 // default — a threshold of 0 phases every settle)
};

/// Fan-out threshold of the batch mode: a settled node whose block holds
/// fewer time-dependent edges (TdGraph / OverlayGraph::ttf_out_degree)
/// runs the interleaved body even under RelaxMode::kBatch. The three-phase
/// structure (buffer writes, a kernel call, a second pass) only pays for
/// itself once TTF evaluations can fill vector lanes: constant words cost
/// a single add either way, and forcing the flat model's 2-3-edge route
/// nodes through the phases costs ~20%. LC is exempt — its batch dimension is the label
/// profile, profitable at any size. Results are identical on both sides
/// of the threshold by construction. This is the compiled default; the
/// effective per-engine value is RelaxOptions::batch_min_edges (0 forces
/// the phased body on every settle — the differential tests' setting).
inline constexpr std::uint32_t kBatchRelaxMinEdges = 8;

/// Relax-loop configuration of one engine: the phasing mode plus the
/// runtime profitability threshold. Results and accounting are bit-identical
/// for every combination by construction (the threshold only selects which
/// of two equivalent loop bodies runs — tests/batch_relax_test.cpp sweeps
/// it alongside the modes); only throughput changes.
struct RelaxOptions {
  RelaxMode mode = RelaxMode::kBatch;
  std::uint32_t batch_min_edges = kBatchRelaxMinEdges;
};

inline const char* relax_mode_name(RelaxMode m) {
  return m == RelaxMode::kBatch ? "batch" : "interleaved";
}

/// Batch-engagement accounting of the overlay engines (kept apart from
/// QueryStats so the cross-mode accounting-identity tests stay meaningful:
/// the interleaved mode gathers nothing by definition). `record(n)` is one
/// increment pair plus a bit_width per executed batch; the histogram is
/// log2-bucketed (bucket b holds gathers of size [2^(b-1), 2^b)).
struct BatchStats {
  std::uint64_t gathers = 0;
  std::uint64_t gathered_edges = 0;
  std::array<std::uint64_t, 16> fanout_hist{};

  void record(std::size_t n) {
    ++gathers;
    gathered_edges += n;
    const unsigned b = static_cast<unsigned>(std::bit_width(n));
    ++fanout_hist[b < fanout_hist.size() ? b : fanout_hist.size() - 1];
  }
  /// Mean gather size over executed batches — the "does the AVX2 kernel
  /// actually see wide batches" number bench_overlay reports and CI gates.
  double mean_gather() const {
    return gathers == 0 ? 0.0
                        : static_cast<double>(gathered_edges) /
                              static_cast<double>(gathers);
  }
  void reset() { *this = BatchStats{}; }
  /// Accumulates another engine's records (the multi-query engine sums
  /// its lanes').
  void add(const BatchStats& o) {
    gathers += o.gathers;
    gathered_edges += o.gathered_edges;
    for (std::size_t b = 0; b < fanout_hist.size(); ++b) {
      fanout_hist[b] += o.fanout_hist[b];
    }
  }
};

/// The gather/eval scratch of one engine: parallel arrays of packed
/// ttf-or-weight words, per-edge auxiliary ids (head node, label slot, or
/// whatever the engine commits against), and the evaluated arrivals. All
/// storage is arena-backed when constructed from a workspace allocator.
class RelaxBatch {
 public:
  RelaxBatch() = default;
  explicit RelaxBatch(ScratchAlloc alloc)
      : words_(ArenaAllocator<std::uint32_t>(alloc)),
        aux_(ArenaAllocator<std::uint32_t>(alloc)),
        aux2_(ArenaAllocator<std::uint32_t>(alloc)),
        out_(ArenaAllocator<Time>(alloc)) {}

  /// Grows every array's capacity to at least n (amortized; engines call
  /// this once with the graph's max out-degree).
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    words_.reserve(n);
    aux_.reserve(n);
    aux2_.reserve(n);
    out_.reserve(n);
    capacity_ = n;
  }
  std::size_t capacity() const { return capacity_; }

  void clear() {
    words_.clear();
    aux_.clear();
    aux2_.clear();
  }
  void push(std::uint32_t word, std::uint32_t aux) {
    words_.push_back(word);
    aux_.push_back(aux);
  }
  /// Two-channel variant (e.g. head + boarding count for the
  /// multi-criteria engine).
  void push2(std::uint32_t word, std::uint32_t aux, std::uint32_t aux2) {
    words_.push_back(word);
    aux_.push_back(aux);
    aux2_.push_back(aux2);
  }
  std::size_t size() const { return words_.size(); }

  const std::uint32_t* words() const { return words_.data(); }
  std::uint32_t aux(std::size_t i) const { return aux_[i]; }
  std::uint32_t aux2(std::size_t i) const { return aux2_[i]; }

  /// Sizes the output array for the current batch and returns it.
  Time* prepare_out() {
    out_.resize(words_.size());
    return out_.data();
  }
  Time out(std::size_t i) const { return out_[i]; }

 private:
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> words_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> aux_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> aux2_;
  std::vector<Time, ArenaAllocator<Time>> out_;
  std::size_t capacity_ = 0;
};

}  // namespace pconn
