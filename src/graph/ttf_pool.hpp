// TtfPool — all travel-time functions of one graph in a single CSR.
//
// The seed representation kept one heap-allocated std::vector<TtfPoint> per
// Ttf; every time-dependent relax chased edge -> Ttf object -> points
// vector through two dependent cache misses and then binary-searched the
// points. The pool stores every function's points back-to-back in one
// contiguous array (16 bytes of metadata per function) and replaces the
// per-call binary search with a precomputed time-bucket index:
//
//   * per function, B buckets partition [0, period); B is one bucket per
//     point, bit_ceil(|points|), and functions below
//     kMinIndexedPoints have no index — they keep a single bucket pointing
//     at their first point, so evaluation degenerates to the linear
//     lower_bound scan (identical results, no index memory);
//   * bucket_idx_[b] holds the first point whose departure falls into
//     bucket b or later, so eval() starts its scan there and walks past at
//     most the points sharing the query's bucket — O(1) expected, against
//     O(log n) dependent branchy loads for the search;
//   * the bucket of a time is a multiply-shift against a precomputed
//     2^32/period reciprocal (no division); the mapping may undershoot by
//     up to two buckets, which only lengthens the scan, never skips points.
//
// Batch evaluation, one function at many entry times (docs/architecture.md
// "Batch relaxation"):
//   * arrival_tn() — the down-sweeps' row call (multi-query lanes, an SPCS
//     partition's connection lanes). It runs an 8-lane AVX2 gather kernel
//     when the CPU has it (runtime dispatch, PCONN_NO_AVX2 escape hatch)
//     and a scalar loop otherwise; the kernel replaces the per-eval
//     hardware division of `t % period` with the same reciprocal multiply
//     the bucket mapping uses and is bit-identical to the scalar path
//     (tests/ttf_test.cpp sweeps per second);
//   * arrival_tn_sorted_fused() — ascending entry times, the LC link step.
// Single evaluations take a packed word (arrival_entry): a pool index, or
// with the kConstFlag top bit an inline constant travel time (the TdGraph
// packed-word encoding) evaluated without touching the pool.
//
// Results are bit-identical to Ttf::eval / Ttf::point_used on the same
// points (tests/ttf_test.cpp proves it exhaustively); the pool is the
// read side, Ttf stays the build/test-side representation. TtfPoolBuilder
// fills a pool once; a finished pool's arrays are ConstArrays, which a
// mapped snapshot can supply in place (timetable/snapshot.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/ttf.hpp"
#include "util/const_array.hpp"
#include "util/prefetch.hpp"

namespace pconn {

class OverlayGraph;
class Timetable;

class TtfPool {
 public:
  /// Words with this bit set are inline constant travel times, not pool
  /// indices (mirrored by TdGraph's packed edge word).
  static constexpr std::uint32_t kConstFlag = 1u << 31;

  /// Functions with fewer points keep a single bucket — no index, a linear
  /// scan from the first point. A <5-point function spans at most one cache
  /// line, so the scan is as fast as the bucket entry it replaces.
  static constexpr std::uint32_t kMinIndexedPoints = 5;

  /// Per-function metadata, 16 bytes (stored verbatim in snapshots).
  struct TtfMeta {
    std::uint32_t first;    // index of the first point in points_
    std::uint32_t count;    // number of points
    std::uint32_t bucket0;  // index of bucket 0 in bucket_idx_
    std::uint32_t log2b;    // log2 of the function's bucket count
  };

  /// An empty pool over `period`. Pools are filled by TtfPoolBuilder or
  /// adopted from a snapshot; a finished pool is read-only.
  explicit TtfPool(Time period = kDayseconds)
      : period_(period), inv_period_((std::uint64_t{1} << 32) / period) {
    assert(period > 0);
    // The AVX2 kernels compare times in signed 32-bit lanes; every real
    // timetable period (a day, a week) is far below this.
    assert(period < (Time{1} << 30));
  }

  std::size_t size() const { return meta_.size(); }
  std::size_t num_points() const { return points_.size(); }
  Time period() const { return period_; }

  bool empty_at(std::uint32_t f) const { return meta_[f].count == 0; }
  std::span<const TtfPoint> points(std::uint32_t f) const {
    const TtfMeta& m = meta_[f];
    return {points_.data() + m.first, m.count};
  }

  /// Travel time when showing up at absolute time t (kInfTime when empty).
  /// Same contract as Ttf::eval, minus the binary search.
  Time eval(std::uint32_t f, Time t) const {
    const TtfMeta& m = meta_[f];
    if (m.count == 0) return kInfTime;
    const Time tau = t % period_;
    const TtfPoint& p = points_[scan_from_bucket(m, tau)];
    const Time wait = p.dep >= tau ? p.dep - tau : period_ + p.dep - tau;
    return wait + p.dur;
  }

  /// Absolute arrival when entering the edge at absolute time t.
  Time arrival(std::uint32_t f, Time t) const {
    const Time w = eval(f, t);
    return w == kInfTime ? kInfTime : t + w;
  }

  /// Absolute arrival via one packed word: a pool index, or an inline
  /// constant travel time when the kConstFlag bit is set.
  Time arrival_entry(std::uint32_t word, Time t) const {
    if (word & kConstFlag) return t + (word & ~kConstFlag);
    return arrival(word, t);
  }

  /// The connection point eval() uses, as an index into points(f).
  /// Identical to Ttf::point_used (journey unpacking relies on this).
  std::size_t point_used(std::uint32_t f, Time t) const {
    const TtfMeta& m = meta_[f];
    assert(m.count != 0);
    return scan_from_bucket(m, t % period_) - m.first;
  }

  /// Batch evaluation, one function at many entry times:
  /// out[i] = arrival(f, ts[i]). AVX2 gather kernel under runtime
  /// dispatch, scalar loop otherwise; bit-identical either way.
  void arrival_tn(std::uint32_t f, const Time* ts, std::size_t n,
                  Time* out) const;

  /// Sorted-batch evaluation, one function at ASCENDING entry times — the
  /// LC link shape (a reduced profile's arrivals are strictly increasing).
  /// A two-pointer merge over the function's sorted points replaces the
  /// per-entry division and bucket lookup: the reduced time advances
  /// incrementally and the candidate point only ever moves forward,
  /// re-entering through the bucket index on a period wrap. Bit-identical
  /// to arrival(f, ts[i]); asserts the precondition in debug builds.
  void arrival_tn_sorted(std::uint32_t f, const Time* ts, std::size_t n,
                         Time* out) const;

  /// Fused form of arrival_tn_sorted for strided/projected inputs: calls
  /// emit(i, arrival) for i in [0, n) with entry times get(i), which must
  /// ascend. Lets the LC link read profile points and build the candidate
  /// profile in one pass, no staging copies.
  template <typename GetTime, typename Emit>
  void arrival_tn_sorted_fused(std::uint32_t f, std::size_t n, GetTime get,
                               Emit emit) const {
    const TtfMeta& m = meta_[f];
    if (n == 0) return;
    if (m.count == 0) {
      for (std::size_t i = 0; i < n; ++i) emit(i, kInfTime);
      return;
    }
    const std::uint32_t end = m.first + m.count;
    Time prev_t = get(0);
    Time tau = prev_t % period_;  // the only unconditional division
    std::uint32_t j = lower_bound_abs(m, tau);
    for (std::size_t i = 0; i < n; ++i) {
      const Time t = get(i);
      assert(t >= prev_t && "sorted link requires ascending entry times");
      const Time delta = t - prev_t;
      if (delta >= period_) {  // skipped whole periods: re-anchor (rare)
        tau = t % period_;
        j = lower_bound_abs(m, tau);
      } else if (delta > 0) {
        tau += delta;
        if (tau >= period_) {  // wrapped once: re-enter through the index
          tau -= period_;
          j = lower_bound_abs(m, tau);
        } else {
          while (j < end && points_[j].dep < tau) ++j;
        }
      }
      prev_t = t;
      const TtfPoint& p = points_[j < end ? j : m.first];
      const Time wait = p.dep >= tau ? p.dep - tau : period_ + p.dep - tau;
      emit(i, t + wait + p.dur);
    }
  }

  /// Hints the function's point block into cache (relax lookahead).
  void prefetch_points(std::uint32_t f) const {
    pconn::prefetch(points_.data() + meta_[f].first);
  }

  /// Pool footprint in bytes: points, metadata and the evaluation index.
  std::size_t memory_bytes() const {
    return points_.size() * sizeof(TtfPoint) + meta_.size() * sizeof(TtfMeta) +
           bucket_idx_.size() * sizeof(std::uint32_t);
  }
  /// Every array's bytes (tests check where adopted arrays live).
  std::vector<std::span<const std::byte>> array_bytes() const {
    return {points_.bytes(), meta_.bytes(), bucket_idx_.bytes()};
  }
  /// Functions [0, n) as a pool of their own: prefix views of this pool's
  /// three arrays that share its storage and keep it alive. Evaluates
  /// bit-identically to this pool for every f < n (a TdGraph reads its
  /// overlay's base functions this way, see OverlayGraph::num_base_ttfs).
  TtfPool prefix(std::uint32_t n) const;
  /// Index-only share of memory_bytes() (docs/architecture.md reporting).
  std::size_t index_bytes() const {
    return meta_.size() * sizeof(TtfMeta) +
           bucket_idx_.size() * sizeof(std::uint32_t);
  }

 private:
  friend class TtfPoolBuilder;
  friend class MappedSnapshot;  // timetable/snapshot.hpp adopts the arrays
  friend void save_snapshot(const Timetable&, const OverlayGraph*,
                            const std::string&);

  /// Bucket of a reduced time: floor(tau * B / period), computed as a
  /// multiply-shift against inv_period_. The truncated reciprocal can
  /// undershoot the exact quotient by at most two, so the scan below may
  /// start up to two buckets early — correct, marginally longer.
  std::uint32_t bucket_of(Time tau, std::uint32_t log2b) const {
    return static_cast<std::uint32_t>(
        ((static_cast<std::uint64_t>(tau) << log2b) * inv_period_) >> 32);
  }

  /// First point with dep >= tau as an absolute index into points_ — may
  /// be one past the function's last point when every point departs
  /// earlier. Exactly lower_bound, entered via the bucket table.
  std::uint32_t lower_bound_abs(const TtfMeta& m, Time tau) const {
    std::uint32_t i = bucket_idx_[m.bucket0 + bucket_of(tau, m.log2b)];
    const std::uint32_t end = m.first + m.count;
    while (i < end && points_[i].dep < tau) ++i;
    return i;
  }

  /// lower_bound_abs wrapping to the function's first point (the cyclic
  /// "next departure" selection eval uses).
  std::uint32_t scan_from_bucket(const TtfMeta& m, Time tau) const {
    const std::uint32_t i = lower_bound_abs(m, tau);
    return i < m.first + m.count ? i : m.first;
  }

  void arrival_tn_scalar(std::uint32_t f, const Time* ts, std::size_t n,
                         Time* out) const;
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  void arrival_tn_avx2(std::uint32_t f, const Time* ts, std::size_t n,
                       Time* out) const;
#endif

  /// log2 of the bucket count a function of `count` points gets: one
  /// bucket per point (rounded to a power of two, capped at 2^16), so the
  /// expected scan past the bucket entry is <= 1 point. Functions below
  /// kMinIndexedPoints (and empty ones) keep a single bucket pointing at
  /// their first point, so eval's index lookup stays branchless and the
  /// scan is the plain linear lower_bound.
  static std::uint32_t log2_buckets(std::size_t count);

  /// Calls emit(entry) for each of function m's buckets in order, where
  /// entry is the absolute index of the first of m's points (`pts`) whose
  /// departure maps to that bucket or later (m.first + count when every
  /// point maps earlier — the scan then wraps to the function's start).
  template <typename Emit>
  void for_each_bucket_entry(const TtfPoint* pts, const TtfMeta& m,
                             Emit emit) const {
    std::uint32_t i = 0;
    for (std::uint32_t b = 0; b < (1u << m.log2b); ++b) {
      while (i < m.count && bucket_of(pts[i].dep, m.log2b) < b) ++i;
      emit(m.first + i);
    }
  }

  /// What a builder would not have produced from these points, or nullptr:
  /// functions contiguous and in order, departures strictly ascending in
  /// [0, period), each function's bucket count, and every bucket entry
  /// recomputed and compared. The snapshot loader runs it before adopting
  /// a pool from a file, which makes every index eval can follow provably
  /// in range.
  const char* layout_error() const;

  Time period_ = kDayseconds;
  std::uint64_t inv_period_ = 0;          // floor(2^32 / period_)
  ConstArray<TtfPoint> points_;           // all functions, back to back
  ConstArray<TtfMeta> meta_;              // one per function
  ConstArray<std::uint32_t> bucket_idx_;  // per-function bucket tables
};

/// The construction side of TtfPool: appends functions into vectors that
/// finish() hands over to the read-only pool once. pool() reads the
/// functions appended so far — the contraction and the re-linker compose
/// new functions from earlier ones while they build.
class TtfPoolBuilder {
 public:
  explicit TtfPoolBuilder(Time period = kDayseconds) : view_(period) {}

  /// Appends a built (sorted, pruned) function; returns its pool index.
  std::uint32_t add(const Ttf& f);

  /// Appends already-built points verbatim (sorted by departure, unique
  /// departures, dominance-pruned — exactly what Ttf::build and points()
  /// produce). No re-validation beyond debug asserts: this is the path the
  /// contraction overlay uses to move functions between pools without
  /// paying the pruning pass again.
  std::uint32_t add_raw(std::span<const TtfPoint> pts);

  /// Bulk-appends functions [begin, end) of `src` verbatim — points, bucket
  /// tables and metadata are range-copied with the index offsets shifted,
  /// skipping add_raw's per-function bucket construction entirely. The
  /// appended functions keep their relative order and spacing, so function
  /// src[begin + k] becomes this[size() before the call + k] and evaluates
  /// bit-identically. This is the incremental re-link fast path: unchanged
  /// runs of a stale epoch's pool splice into the new epoch's pool in one
  /// memcpy-shaped pass (src/live/, algo/contraction re-link). Requires
  /// a matching period.
  void append_copy(const TtfPool& src, std::uint32_t begin, std::uint32_t end);

  /// Reserves room for `factor` times `like`'s functions, points and
  /// bucket entries, so appends up to that size never regrow the arrays
  /// (the contraction sizes its overlay pool from the base pool this way).
  void reserve_like(const TtfPool& like, double factor = 1.0);

  /// The functions appended so far; valid until the next append.
  const TtfPool& pool() const { return view_; }
  std::size_t num_points() const { return points_.size(); }

  /// Hands the arrays over to a finished pool as they are, without a copy,
  /// and returns the whole pages of their reserved or grown capacity to
  /// the kernel, so what stays resident is each array's size. The builder
  /// is left empty.
  TtfPool finish();

 private:
  void refresh_view();

  std::vector<TtfPoint> points_;
  std::vector<TtfPool::TtfMeta> meta_;
  std::vector<std::uint32_t> bucket_idx_;
  TtfPool view_;  // non-owning views of the three vectors
};

}  // namespace pconn
