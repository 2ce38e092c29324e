// The priority queue of each query engine family.
//
// Every Dijkstra-style engine runs the paper's queue ("As priority queue
// we use a binary heap", Section 5): an addressable binary heap with
// decrease-key, which never produces stale pops. The one exception is the
// multi-criteria engine, whose multi-label search keeps several live entries
// per node and so runs the lazy-deletion heap at the same arity.
// docs/queues.md records why no other policy is kept.
#pragma once

#include <cstdint>

#include "timetable/types.hpp"
#include "util/heap.hpp"
#include "util/lazy_heap.hpp"

namespace pconn {

/// SPCS queue keys are composite: (arrival << kSpcsKeyShift) | rev-conn
/// index (see SpcsThreadState).
inline constexpr unsigned kSpcsKeyShift = 20;
using SpcsQueue = DAryHeap<std::uint64_t, 2>;

/// Scalar-time engines (TimeQuery, flat or overlay-routed) and the
/// label-correcting baselines.
using TimeQueue = DAryHeap<Time, 2>;

/// Mc queue keys are composite: (arrival << kMcKeyShift) | boardings. A
/// multi-label search keeps several live entries per node, which an
/// addressable heap (one key per id) cannot hold; the lazy heap at arity 2
/// is exactly the std::priority_queue the engine used to hard-code.
inline constexpr unsigned kMcKeyShift = 8;
using McQueue = LazyDAryHeap<std::uint64_t, 2>;

}  // namespace pconn
