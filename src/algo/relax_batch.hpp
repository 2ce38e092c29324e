// The two relax bodies of the label-correcting profile baseline
// (docs/architecture.md "Batch relaxation").
//
// An interleaved settle loop evaluates each edge's travel-time function
// right before its queue push logic, edge by edge. LC's batched form makes
// the node's label profile the vector dimension: one sorted
// TtfPool::arrival_tn_sorted_fused call per edge evaluates every label
// point, instead of one scalar evaluation per point. Results and
// accounting are identical either way; the batch body is faster and the
// interleaved body is its oracle (tests/batch_relax_test.cpp) and the
// measured side of bench_batchrelax's batch_speedup.
//
// LC (LcProfileQuery, the flat Table 1 baseline) is the only engine with
// both bodies, so RelaxMode has no reader outside it. Every other
// engine has one interleaved body: the flat scalar engines because a flat
// node carries at most one travel function (graph_test asserts it); SPCS
// (flat and overlay) and the overlay time query because their phased
// gather -> eval -> commit bodies measured slower on every preset and were
// deleted. The overlay SPCS down-sweep batches a partition's connection
// lanes into one arrival_tn call per down-edge; that is its only body.
#pragma once

#include <cstdint>

namespace pconn {

enum class RelaxMode : std::uint8_t {
  kInterleaved,  // eval and push logic per label point (LC's oracle)
  kBatch,        // one sorted kernel call per edge over the label (default)
};

inline const char* relax_mode_name(RelaxMode m) {
  return m == RelaxMode::kBatch ? "batch" : "interleaved";
}

}  // namespace pconn
