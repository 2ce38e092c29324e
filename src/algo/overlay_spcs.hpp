// Overlay-routed parallel SPCS: the paper's partitioned connection-setting
// profile search (algo/parallel_spcs.hpp) with the per-thread ascents run
// on the contraction overlay's unified out-CSR (graph/overlay_graph.hpp)
// instead of the flat graph. It is ParallelSpcs built with an overlay
// (`ParallelSpcs(tt, g, ov, opt)`); this header and overlay_spcs.cpp hold
// the overlay half of that class: why it is exact, and the down-sweep.
//
// Why it is exact. SPCS sources are *route nodes* (one initial push per
// connection at its departure node), and node ids are shared between the
// flat graph and the overlay. From any node — core or contracted — a
// Dijkstra over the unified CSR reaches every CORE node at its exact flat
// distance: a contracted node's stored edges are its out-edges at the
// moment of contraction (heads ranked higher, or core), so the search
// climbs monotonically into the core and then stays there, and witness-
// checked shortcuts preserve all shortest paths into the core. Stations
// are never contracted, so every station label a thread settles — and
// therefore every station profile — is built from exact arrivals. Board
// costs need no source treatment here (unlike the station-sourced overlay
// engines): a shortcut leaving station S folds T(S) into its TTF, which is
// exactly the mid-journey re-boarding cost SPCS pays on the flat graph.
//
// Self-pruning stays thread-local and exact at the *reduced profile*
// level: a pruned (v, i) is always dominated by the same-partition
// connection j > i that pruned it (dep_j >= dep_i, arrival no later), so
// flat and overlay label matrices may differ slot by slot while the
// connection reduction converges to byte-identical profiles — at every
// station and across thread counts (tests/overlay_spcs_test.cpp proves
// this differentially). The ascent is
// SPCS's one relax body (algo/spcs.hpp).
//
// Contracted nodes are recovered on demand by settle_contracted(): one
// batched per-partition downward sweep over the overlay's down-CSR. The
// thread's label matrix is already node-major (slot v * W + li), so each
// down-edge feeds ONE pooled arrival_tn call with the whole partition's W
// connection lanes, writing back in place with no transposed copy. Unlike
// the station-sourced engines' sweep, the SPCS ascent can settle contracted
// nodes on its way up (sources are contracted), so the sweep folds with
// min() rather than overwriting. The
// row call is the sweep's only body: a per-lane scalar variant measured
// slower on three of five presets and was deleted (docs/architecture.md
// "Batch relaxation").
// After it, node_profile() is exact at EVERY flat node by the same
// domination argument, transitively through the FIFO down TTFs.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/parallel_spcs.hpp"
#include "algo/workspace.hpp"
#include "timetable/types.hpp"

namespace pconn {

/// Arena-backed per-thread sweep rows: raw entry times (kInfTime = dead
/// lane), the kernel's clamped copy, its outputs, the running strict
/// minimum, and per-lane relax counters.
struct ParallelSpcs::SweepScratch {
  explicit SweepScratch(ScratchAlloc alloc)
      : raw(ArenaAllocator<Time>(alloc)),
        ts(ArenaAllocator<Time>(alloc)),
        out(ArenaAllocator<Time>(alloc)),
        best(ArenaAllocator<Time>(alloc)),
        rcnt(ArenaAllocator<std::uint32_t>(alloc)) {}
  std::vector<Time, ArenaAllocator<Time>> raw, ts, out, best;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> rcnt;
};

/// The former name of an overlay-routed ParallelSpcs. Kept only because
/// bench/e2e/ladder.cpp spells it; goes with that file's next change.
using OverlayParallelSpcs = ParallelSpcs;

}  // namespace pconn
