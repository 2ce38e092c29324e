// The monotone priority-queue policies of the query engines.
//
// Every Dijkstra-style engine (SPCS, the time queries, MC) is a class
// template over a queue policy; this header names the two shipped policy
// families, gives them stable CLI names (`--queue` in the table benches),
// and provides the runtime-to-compile-time dispatch the benches and tests
// use. Two families survive because each earns its place (docs/queues.md):
//   binary — the paper's queue ("As priority queue we use a binary heap",
//            Section 5) and the reference oracle of every differential test;
//   bucket — the measured winner (BENCH_queues.json: 1.2-2.2x over binary
//            on every preset).
// A policy must provide:
//   reset_capacity / capacity / size / empty / push / pop / top_key /
//   top_id / clear,
// plus the trait constants
//   kAddressable  — contains/key_of/decrease_key/erase/push_or_decrease
//                   exist and pops are never stale;
//   kMonotone     — pushes below the last popped key are forbidden
//                   (bucket queues; unusable for label-correcting search).
// Non-addressable policies rely on the engines' settled/label arrays to
// recognise and drop stale pops (counted in QueryStats::stale_popped).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "timetable/types.hpp"
#include "util/bucket_queue.hpp"
#include "util/heap.hpp"
#include "util/lazy_heap.hpp"

namespace pconn {

/// SPCS queue keys are composite: (arrival << kSpcsKeyShift) | rev-conn
/// index (see SpcsThreadStateT). The bucket policy buckets on the arrival
/// part only, so tie-breaking stays inside one bucket.
inline constexpr unsigned kSpcsKeyShift = 20;

// --- SPCS policies (64-bit composite keys) -------------------------------
using SpcsBinaryQueue = DAryHeap<std::uint64_t, 2>;  // the paper's queue
using SpcsBucketQueue = BucketQueue<std::uint64_t, kSpcsKeyShift, 12>;

// --- scalar-time policies (TimeQuery / LC) -------------------------------
using TimeBinaryQueue = DAryHeap<Time, 2>;
using TimeBucketQueue = BucketQueue<Time, 0, 12>;  // one bucket per second

// --- multi-criteria policies (McTimeQuery) -------------------------------
/// Mc queue keys are composite: (arrival << kMcKeyShift) | boardings. A
/// multi-label search keeps several live entries per node, so only
/// non-addressable policies apply (an addressable heap holds one key per
/// id); the "binary" spot is filled by the lazy heap at arity 2, which is
/// exactly the std::priority_queue the engine used to hard-code.
inline constexpr unsigned kMcKeyShift = 8;
using McBinaryQueue = LazyDAryHeap<std::uint64_t, 2>;
using McBucketQueue = BucketQueue<std::uint64_t, kMcKeyShift, 12>;

/// Runtime policy selector (bench `--queue` flag, differential tests).
enum class QueueKind { kBinary, kBucket };

inline constexpr QueueKind kAllQueueKinds[] = {QueueKind::kBinary,
                                               QueueKind::kBucket};

inline const char* queue_kind_name(QueueKind k) {
  return k == QueueKind::kBucket ? "bucket" : "binary";
}

inline std::optional<QueueKind> parse_queue_kind(std::string_view s) {
  for (QueueKind k : kAllQueueKinds) {
    if (s == queue_kind_name(k)) return k;
  }
  return std::nullopt;
}

/// The concrete policy of each engine family for one QueueKind. The
/// label-correcting engines have no entry: they run the binary heap
/// whatever the kind (bucket queues are monotone-only).
template <QueueKind K>
struct QueueSet {
  static constexpr QueueKind kind = K;
  using Spcs = SpcsBinaryQueue;
  using Time = TimeBinaryQueue;
  using Mc = McBinaryQueue;
};

template <>
struct QueueSet<QueueKind::kBucket> {
  static constexpr QueueKind kind = QueueKind::kBucket;
  using Spcs = SpcsBucketQueue;
  using Time = TimeBucketQueue;
  using Mc = McBucketQueue;
};

/// Calls `fn(QueueSet<K>{})` with the set selected by `k`; returns whatever
/// fn returns (both branches must agree).
template <typename Fn>
decltype(auto) with_queue(QueueKind k, Fn&& fn) {
  if (k == QueueKind::kBucket) return fn(QueueSet<QueueKind::kBucket>{});
  return fn(QueueSet<QueueKind::kBinary>{});
}

}  // namespace pconn
