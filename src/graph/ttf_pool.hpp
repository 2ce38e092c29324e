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
//     kPointsPerBucket = 2 points, bit_ceil(|points|) / 2, and functions
//     below kMinIndexedPoints have no index — they keep a single bucket
//     pointing at their first point, so evaluation degenerates to the
//     linear lower_bound scan (identical results, no index memory);
//   * bucket_idx_[b] holds the first point whose departure falls into
//     bucket b or later, so eval() starts its scan there and walks past at
//     most the points sharing the query's bucket — O(1) expected (one to
//     two points on average), against O(log n) dependent branchy loads
//     for the search;
//   * the bucket of a time is a multiply-shift against a precomputed
//     2^32/period reciprocal (no division); the mapping may undershoot by
//     up to two buckets, which only lengthens the scan, never skips points.
//
// Point words (docs/architecture.md "TTF index"): a finished pool stores
// each point as one 4-byte word, dep | dur << dep_bits with dep_bits =
// bit_width(period - 1) (17 for a day), when every duration of the pool
// fits the remaining bits — a compact pool. Otherwise (a ride longer than
// 2^15 s at a one-day period, or a multi-day period whose durations do not
// fit) it keeps two words per point, the TtfPoint {dep, dur} — a wide
// pool. The format is chosen once per pool from the data, so the metadata
// stays 16 bytes and every read makes one predictable dispatch
// (with_codec) into a body templated on the decode (WideCodec /
// CompactCodec). Bucket entries and TtfMeta::first count points, not
// words, in both formats.
//
// Batch evaluation, one function at many entry times (docs/architecture.md
// "Batch relaxation"):
//   * arrival_tn() — the down-sweeps' row call (multi-query lanes, an SPCS
//     partition's connection lanes). It runs an 8-lane AVX2 gather kernel
//     when the CPU has it (runtime dispatch, PCONN_NO_AVX2 escape hatch)
//     and a scalar loop otherwise; the kernel replaces the per-eval
//     hardware division of `t % period` with the same reciprocal multiply
//     the bucket mapping uses, gathers one word per compact point, and is
//     bit-identical to the scalar path (tests/ttf_test.cpp sweeps per
//     second);
//   * arrival_tn_sorted_fused() — ascending entry times, the LC link step.
// Single evaluations take a packed word (arrival_entry): a pool index, or
// with the kConstFlag top bit an inline constant travel time (the TdGraph
// packed-word encoding) evaluated without touching the pool.
//
// Results are bit-identical to Ttf::eval / Ttf::point_used on the same
// points (tests/ttf_test.cpp proves it exhaustively, in both formats); the
// pool is the read side, Ttf stays the build/test-side representation.
// TtfPoolBuilder fills a pool once with 8-byte points and picks the format
// in finish(); a finished pool's arrays are ConstArrays, which a mapped
// snapshot can supply in place (timetable/snapshot.hpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
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

  /// Index density: an indexed function gets one bucket per this many
  /// points. Fixed, not a setting. One per point made the bucket tables a
  /// quarter of a snapshot (LA-like, 6.9 of 29.4 MB); at two the scan
  /// still ends within one cache line of the entry on average, while one
  /// per four points slowed bench_layout's pooled one-to-all by a fifth
  /// (docs/architecture.md "TTF index").
  static constexpr std::uint32_t kPointsPerBucket = 2;

  /// Per-function metadata, 16 bytes (stored verbatim in snapshots).
  struct TtfMeta {
    std::uint32_t first;    // index of the first point (not word)
    std::uint32_t count;    // number of points
    std::uint32_t bucket0;  // index of bucket 0 in bucket_idx_
    std::uint32_t log2b;    // log2 of the function's bucket count
  };

  /// The wide point format: two words per point, dep then dur — the bytes
  /// of a TtfPoint. `i` is an absolute point index.
  struct WideCodec {
    static constexpr std::uint32_t kWordsPerPoint = 2;
    const std::uint32_t* words;
    Time dep(std::size_t i) const { return words[2 * i]; }
    TtfPoint at(std::size_t i) const {
      return {words[2 * i], words[2 * i + 1]};
    }
    /// Points [lo, lo + n) into out.
    void decode_range(std::size_t lo, std::size_t n, TtfPoint* out) const {
      if (n != 0) std::memcpy(out, words + 2 * lo, n * sizeof(TtfPoint));
    }
  };
  /// The compact point format: one word per point, dep | dur << bits.
  struct CompactCodec {
    static constexpr std::uint32_t kWordsPerPoint = 1;
    const std::uint32_t* words;
    std::uint32_t bits;
    Time dep(std::size_t i) const { return words[i] & ((1u << bits) - 1); }
    TtfPoint at(std::size_t i) const {
      return {words[i] & ((1u << bits) - 1), words[i] >> bits};
    }
    /// Points [lo, lo + n) into out, in one loop that vectorizes.
    void decode_range(std::size_t lo, std::size_t n, TtfPoint* out) const {
      const std::uint32_t* const w = words + lo;
      const std::uint32_t mask = (1u << bits) - 1;
      for (std::size_t i = 0; i < n; ++i) out[i] = {w[i] & mask, w[i] >> bits};
    }
  };

  /// One function's points, decoded on read from either format. Cold
  /// paths only (comparisons, relink diffs, tests): each access dispatches
  /// on the format, where the evaluation paths dispatch once per call.
  class Points {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = TtfPoint;
      using difference_type = std::ptrdiff_t;
      using reference = TtfPoint;
      using pointer = void;
      iterator() = default;
      TtfPoint operator*() const { return decode(words_, bits_, i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++i_;
        return old;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }

     private:
      friend class Points;
      iterator(const std::uint32_t* w, std::uint32_t bits, std::size_t i)
          : words_(w), bits_(bits), i_(i) {}
      const std::uint32_t* words_ = nullptr;
      std::uint32_t bits_ = 0;
      std::size_t i_ = 0;
    };

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    TtfPoint operator[](std::size_t i) const {
      assert(i < count_);
      return decode(words_, bits_, i);
    }
    iterator begin() const { return {words_, bits_, 0}; }
    iterator end() const { return {words_, bits_, count_}; }
    /// The same points. Views of one format compare their words: each
    /// format has one encoding of a point.
    friend bool operator==(const Points& a, const Points& b) {
      if (a.count_ != b.count_) return false;
      if (a.bits_ != b.bits_) return std::equal(a.begin(), a.end(), b.begin());
      const std::size_t words = a.bits_ != 0 ? a.count_ : 2 * a.count_;
      return a.count_ == 0 ||
             std::memcmp(a.words_, b.words_, words * sizeof(std::uint32_t)) ==
                 0;
    }

   private:
    friend class TtfPool;
    Points(const std::uint32_t* w, std::uint32_t bits, std::size_t count)
        : words_(w), bits_(bits), count_(count) {}
    const std::uint32_t* words_;  // the function's first point
    std::uint32_t bits_;          // 0: wide
    std::size_t count_;
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
  std::size_t num_points() const {
    return dep_bits_ != 0 ? words_.size() : words_.size() / 2;
  }
  Time period() const { return period_; }
  /// Departure bits of a compact pool's point words; 0 for a wide pool.
  std::uint32_t dep_bits() const { return dep_bits_; }
  /// The dep_bits a compact pool over `period` uses: bit_width(period - 1),
  /// or 0 for a one-second period (which has no compact form).
  static std::uint32_t compact_dep_bits(Time period);

  bool empty_at(std::uint32_t f) const { return meta_[f].count == 0; }
  Points points(std::uint32_t f) const {
    const TtfMeta& m = meta_[f];
    return {words_.data() + word_index(m.first), dep_bits_, m.count};
  }

  /// Calls fn(codec) with the pool's decode — the one format dispatch of
  /// every read path; fn is instantiated once per format.
  template <typename Fn>
  decltype(auto) with_codec(Fn&& fn) const {
    if (dep_bits_ != 0) return fn(CompactCodec{words_.data(), dep_bits_});
    return fn(WideCodec{words_.data()});
  }

  /// Travel time when showing up at absolute time t (kInfTime when empty).
  /// Same contract as Ttf::eval, minus the binary search.
  Time eval(std::uint32_t f, Time t) const {
    return with_codec([&](auto pts) { return eval_in(pts, f, t); });
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
    return with_codec([&](auto pts) {
      return scan_from_bucket(pts, m, t % period_) - m.first;
    });
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
    with_codec([&](auto pts) {
      const std::uint32_t end = m.first + m.count;
      Time prev_t = get(0);
      Time tau = prev_t % period_;  // the only unconditional division
      std::uint32_t j = lower_bound_abs(pts, m, tau);
      for (std::size_t i = 0; i < n; ++i) {
        const Time t = get(i);
        assert(t >= prev_t && "sorted link requires ascending entry times");
        const Time delta = t - prev_t;
        if (delta >= period_) {  // skipped whole periods: re-anchor (rare)
          tau = t % period_;
          j = lower_bound_abs(pts, m, tau);
        } else if (delta > 0) {
          tau += delta;
          if (tau >= period_) {  // wrapped once: re-enter through the index
            tau -= period_;
            j = lower_bound_abs(pts, m, tau);
          } else {
            while (j < end && pts.dep(j) < tau) ++j;
          }
        }
        prev_t = t;
        const TtfPoint p = pts.at(j < end ? j : m.first);
        const Time wait = p.dep >= tau ? p.dep - tau : period_ + p.dep - tau;
        emit(i, t + wait + p.dur);
      }
    });
  }

  /// Hints the function's point block into cache (relax lookahead).
  void prefetch_points(std::uint32_t f) const {
    pconn::prefetch(words_.data() + word_index(meta_[f].first));
  }

  /// Pool footprint in bytes: points, metadata and the evaluation index.
  std::size_t memory_bytes() const {
    return words_.size() * sizeof(std::uint32_t) + index_bytes();
  }
  /// Every array's bytes (tests check where adopted arrays live): the
  /// point words, the metadata and the bucket index.
  std::vector<std::span<const std::byte>> array_bytes() const {
    return {words_.bytes(), meta_.bytes(), bucket_idx_.bytes()};
  }
  /// Functions [0, n) as a pool of their own: prefix views of this pool's
  /// three arrays that share its storage and keep it alive. Evaluates
  /// bit-identically to this pool for every f < n (a TdGraph reads its
  /// overlay's base functions this way, see OverlayGraph::num_base_ttfs).
  TtfPool prefix(std::uint32_t n) const;
  /// True when both pools hold the same functions: same period, metadata
  /// and index, and the same decoded points, whichever format each pool
  /// stores them in.
  bool same_functions(const TtfPool& other) const;
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

  /// Point i of a pool with `bits` departure bits (0: wide).
  static TtfPoint decode(const std::uint32_t* w, std::uint32_t bits,
                         std::size_t i) {
    return bits != 0 ? CompactCodec{w, bits}.at(i) : WideCodec{w}.at(i);
  }
  /// The word index of point i: a shift, not a branch, since the relax
  /// loops' prefetch computes it for every edge.
  std::size_t word_index(std::size_t i) const {
    return i << (dep_bits_ == 0);
  }

  template <typename Codec>
  Time eval_in(Codec pts, std::uint32_t f, Time t) const {
    const TtfMeta& m = meta_[f];
    if (m.count == 0) return kInfTime;
    const Time tau = t % period_;
    const TtfPoint p = pts.at(scan_from_bucket(pts, m, tau));
    const Time wait = p.dep >= tau ? p.dep - tau : period_ + p.dep - tau;
    return wait + p.dur;
  }

  /// Bucket of a reduced time: floor(tau * B / period), computed as a
  /// multiply-shift against inv_period_. The truncated reciprocal can
  /// undershoot the exact quotient by at most two, so the scan below may
  /// start up to two buckets early — correct, marginally longer.
  std::uint32_t bucket_of(Time tau, std::uint32_t log2b) const {
    return static_cast<std::uint32_t>(
        ((static_cast<std::uint64_t>(tau) << log2b) * inv_period_) >> 32);
  }

  /// First point with dep >= tau as an absolute point index — may be one
  /// past the function's last point when every point departs earlier.
  /// Exactly lower_bound, entered via the bucket table. A bucket holds one
  /// to two points on average, so whether the scan passes the entry's
  /// point is close to a coin toss: that first step is an add, not a
  /// branch the predictor would often miss.
  template <typename Codec>
  std::uint32_t lower_bound_abs(Codec pts, const TtfMeta& m, Time tau) const {
    std::uint32_t i = bucket_idx_[m.bucket0 + bucket_of(tau, m.log2b)];
    const std::uint32_t end = m.first + m.count;
    if (i < end) i += static_cast<std::uint32_t>(pts.dep(i) < tau);
    while (i < end && pts.dep(i) < tau) ++i;
    return i;
  }

  /// lower_bound_abs wrapping to the function's first point (the cyclic
  /// "next departure" selection eval uses).
  template <typename Codec>
  std::uint32_t scan_from_bucket(Codec pts, const TtfMeta& m, Time tau) const {
    const std::uint32_t i = lower_bound_abs(pts, m, tau);
    return i < m.first + m.count ? i : m.first;
  }

  template <typename Codec>
  void arrival_tn_scalar(Codec pts, std::uint32_t f, const Time* ts,
                         std::size_t n, Time* out) const {
    for (std::size_t i = 0; i < n; ++i) {
      const Time w = eval_in(pts, f, ts[i]);
      out[i] = w == kInfTime ? kInfTime : ts[i] + w;
    }
  }
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  template <typename Codec>
  void arrival_tn_avx2(Codec pts, std::uint32_t f, const Time* ts,
                       std::size_t n, Time* out) const;
#endif

  /// log2 of the bucket count a function of `count` points gets: one
  /// bucket per kPointsPerBucket points, bit_ceil(count) / kPointsPerBucket
  /// (capped at 2^16), so the expected scan past the bucket entry is at
  /// most kPointsPerBucket points. Functions below
  /// kMinIndexedPoints (and empty ones) keep a single bucket pointing at
  /// their first point, so eval's index lookup stays branchless and the
  /// scan is the plain linear lower_bound.
  static std::uint32_t log2_buckets(std::size_t count);

  /// Calls emit(entry) for each of function m's buckets in order, where
  /// entry is the absolute index of the first of m's points whose
  /// departure (dep_at(k) for its k-th point) maps to that bucket or later
  /// (m.first + count when every point maps earlier — the scan then wraps
  /// to the function's start).
  template <typename DepAt, typename Emit>
  void for_each_bucket_entry(DepAt dep_at, const TtfMeta& m, Emit emit) const {
    std::uint32_t i = 0;
    for (std::uint32_t b = 0; b < (1u << m.log2b); ++b) {
      while (i < m.count && bucket_of(dep_at(i), m.log2b) < b) ++i;
      emit(m.first + i);
    }
  }

  /// What a builder would not have produced from these points, or nullptr:
  /// the point format the one finish() picks for this period and these
  /// durations, functions contiguous and in order, departures strictly
  /// ascending in [0, period), durations below 2^30 (the time range the
  /// kernels' signed lanes assume), each function's bucket count, and
  /// every bucket entry recomputed and compared. The snapshot loader runs
  /// it before adopting a pool from a file, which makes every index eval
  /// can follow provably in range.
  const char* layout_error() const;

  Time period_ = kDayseconds;
  std::uint64_t inv_period_ = 0;          // floor(2^32 / period_)
  std::uint32_t dep_bits_ = 0;            // 0: wide (two words per point)
  ConstArray<std::uint32_t> words_;       // all points, back to back
  ConstArray<TtfMeta> meta_;              // one per function
  ConstArray<std::uint32_t> bucket_idx_;  // per-function bucket tables
};

/// The construction side of TtfPool: appends functions into vectors that
/// finish() hands over to the read-only pool once. pool() reads the
/// functions appended so far — the contraction and the re-linker compose
/// new functions from earlier ones while they build. The builder holds
/// 8-byte TtfPoints, like Ttf, so pool() is always a wide pool; finish()
/// picks the finished pool's format.
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

  /// Bulk-appends functions [begin, end) of `src` verbatim — points
  /// (decoded from a compact source), bucket tables and metadata are
  /// range-copied with the index offsets shifted, skipping add_raw's
  /// per-function bucket construction entirely. The appended functions
  /// keep their relative order and spacing, so function src[begin + k]
  /// becomes this[size() before the call + k] and evaluates
  /// bit-identically. This is the incremental re-link fast path: unchanged
  /// runs of a stale epoch's pool splice into the new epoch's pool in one
  /// pass (src/live/, algo/contraction re-link). Requires a matching
  /// period.
  void append_copy(const TtfPool& src, std::uint32_t begin, std::uint32_t end);

  /// Reserves room for `factor` times `like`'s functions, points and
  /// bucket entries, so appends up to that size never regrow the arrays
  /// (the contraction sizes its overlay pool from the base pool this way).
  void reserve_like(const TtfPool& like, double factor = 1.0);

  /// The functions appended so far; valid until the next append.
  const TtfPool& pool() const { return view_; }
  std::size_t num_points() const { return points_.size(); }
  Time period() const { return view_.period(); }
  /// Function f's points as they stand, 8 bytes each; valid until the next
  /// append.
  std::span<const TtfPoint> points(std::uint32_t f) const {
    const TtfPool::TtfMeta& m = meta_[f];
    return {points_.data() + m.first, m.count};
  }

  /// Hands the arrays over to a finished pool: compact when every
  /// duration fits the bits a departure leaves (the points are encoded
  /// into an exactly sized word array, one word each, and freed; the same
  /// pass tests the durations), wide otherwise (the points as they stand,
  /// not copied). Returns the whole pages past each kept array's size to
  /// the kernel, so what stays resident is the finished pool. The builder
  /// is left empty.
  TtfPool finish();

 private:
  void refresh_view();

  std::vector<TtfPoint> points_;
  std::vector<TtfPool::TtfMeta> meta_;
  std::vector<std::uint32_t> bucket_idx_;
  TtfPool view_;  // non-owning wide views of the three vectors
};

}  // namespace pconn
