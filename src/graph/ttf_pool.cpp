#include "graph/ttf_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/simd.hpp"

namespace pconn {

TtfPool TtfPool::prefix(std::uint32_t n) const {
  assert(n <= meta_.size());
  // Functions are laid out in add order, so [0, n) is a prefix of each of
  // the three arrays.
  std::size_t points = 0, buckets = 0;
  if (n > 0) {
    const TtfMeta& last = meta_[n - 1];
    points = std::size_t{last.first} + last.count;
    buckets = std::size_t{last.bucket0} + (std::size_t{1} << last.log2b);
  }
  TtfPool out(period_);
  out.points_ = points_.prefix(points);
  out.meta_ = meta_.prefix(n);
  out.bucket_idx_ = bucket_idx_.prefix(buckets);
  return out;
}

std::uint32_t TtfPool::log2_buckets(std::size_t count) {
  std::size_t buckets = 1;
  if (count >= kMinIndexedPoints) {
    buckets = std::min(std::bit_ceil(count) / kPointsPerBucket,
                       std::size_t{1} << 16);
  }
  return static_cast<std::uint32_t>(std::countr_zero(buckets));
}

const char* TtfPool::layout_error() const {
  // The AVX2 kernel gathers points and bucket entries through signed
  // 32-bit lanes (the same bound add_raw asserts).
  if (meta_.size() >= (std::size_t{1} << 29) ||
      points_.size() >= (std::size_t{1} << 29)) {
    return "pool too large";
  }
  std::size_t first = 0, bucket0 = 0;
  for (const TtfMeta& m : meta_) {
    if (m.first != first || m.count > points_.size() - first) {
      return "function points not contiguous";
    }
    if (m.bucket0 != bucket0 || m.log2b != log2_buckets(m.count) ||
        (std::size_t{1} << m.log2b) > bucket_idx_.size() - bucket0) {
      return "bucket table layout";
    }
    const TtfPoint* pts = points_.data() + m.first;
    for (std::uint32_t i = 0; i < m.count; ++i) {
      if (pts[i].dep >= period_ || (i > 0 && pts[i - 1].dep >= pts[i].dep)) {
        return "malformed function points";
      }
    }
    bool same = true;
    const std::uint32_t* stored = bucket_idx_.data() + m.bucket0;
    for_each_bucket_entry(pts, m, [&](std::uint32_t entry) {
      same = same && *stored++ == entry;
    });
    if (!same) return "bucket index differs from its recomputation";
    first += m.count;
    bucket0 += std::size_t{1} << m.log2b;
  }
  if (first != points_.size() || bucket0 != bucket_idx_.size()) {
    return "pool arrays longer than their functions";
  }
  return nullptr;
}

std::uint32_t TtfPoolBuilder::add(const Ttf& f) {
  assert(f.period() == view_.period() || f.empty());
  return add_raw(f.points());
}

std::uint32_t TtfPoolBuilder::add_raw(std::span<const TtfPoint> pts) {
#ifndef NDEBUG
  for (std::size_t i = 0; i < pts.size(); ++i) {
    assert(pts[i].dep < view_.period());
    assert(i == 0 || pts[i - 1].dep < pts[i].dep);
  }
#endif
  // The AVX2 kernel gathers points and bucket entries through signed
  // 32-bit lanes; both stay far below 2^29 entries on any real network.
  assert(meta_.size() < (std::size_t{1} << 29));
  assert(points_.size() + pts.size() < (std::size_t{1} << 29));
  const std::uint32_t idx = static_cast<std::uint32_t>(meta_.size());
  TtfPool::TtfMeta m;
  m.first = static_cast<std::uint32_t>(points_.size());
  m.count = static_cast<std::uint32_t>(pts.size());
  m.bucket0 = static_cast<std::uint32_t>(bucket_idx_.size());
  m.log2b = view_.log2_buckets(pts.size());
  points_.insert(points_.end(), pts.begin(), pts.end());
  view_.for_each_bucket_entry(
      pts.data(), m, [this](std::uint32_t e) { bucket_idx_.push_back(e); });
  meta_.push_back(m);
  refresh_view();
  return idx;
}

void TtfPoolBuilder::append_copy(const TtfPool& src, std::uint32_t begin,
                                 std::uint32_t end) {
  assert(src.period_ == view_.period_);
  assert(begin <= end && end <= src.meta_.size());
  if (begin == end) return;
  const TtfPool::TtfMeta& mb = src.meta_[begin];
  const TtfPool::TtfMeta& ml = src.meta_[end - 1];
  // Functions are laid out in add order, so [begin, end) occupies one
  // contiguous span in each of src's three arrays.
  const std::uint32_t pts_lo = mb.first;
  const std::uint32_t pts_hi = ml.first + ml.count;
  const std::uint32_t bkt_lo = mb.bucket0;
  const std::uint32_t bkt_hi = ml.bucket0 + (1u << ml.log2b);
  assert(points_.size() + (pts_hi - pts_lo) < (std::size_t{1} << 29));
  assert(meta_.size() + (end - begin) < (std::size_t{1} << 29));
  const std::uint32_t point_shift =
      static_cast<std::uint32_t>(points_.size()) - pts_lo;
  const std::uint32_t bucket_shift =
      static_cast<std::uint32_t>(bucket_idx_.size()) - bkt_lo;

  points_.insert(points_.end(), src.points_.begin() + pts_lo,
                 src.points_.begin() + pts_hi);
  // Bucket entries are absolute point indices; shift them as they land.
  bucket_idx_.reserve(bucket_idx_.size() + (bkt_hi - bkt_lo));
  for (std::uint32_t b = bkt_lo; b < bkt_hi; ++b) {
    bucket_idx_.push_back(src.bucket_idx_[b] + point_shift);
  }
  meta_.reserve(meta_.size() + (end - begin));
  for (std::uint32_t f = begin; f < end; ++f) {
    TtfPool::TtfMeta m = src.meta_[f];
    m.first += point_shift;
    m.bucket0 += bucket_shift;
    meta_.push_back(m);
  }
  refresh_view();
}

void TtfPoolBuilder::reserve_like(const TtfPool& like, double factor) {
  const auto scaled = [factor](std::size_t n) {
    return static_cast<std::size_t>(static_cast<double>(n) * factor);
  };
  points_.reserve(scaled(like.points_.size()));
  meta_.reserve(scaled(like.meta_.size()));
  bucket_idx_.reserve(scaled(like.bucket_idx_.size()));
  refresh_view();
}

void TtfPoolBuilder::refresh_view() {
  view_.points_ = ConstArray(points_.data(), points_.size(), nullptr);
  view_.meta_ = ConstArray(meta_.data(), meta_.size(), nullptr);
  view_.bucket_idx_ =
      ConstArray(bucket_idx_.data(), bucket_idx_.size(), nullptr);
}

namespace {

/// Hands the whole pages of v's unused capacity back to the kernel. The
/// finished pool never writes past size(), and the allocation stays v's:
/// a released page reads as zeros if it is ever touched again. Advisory:
/// if madvise fails, the pages merely stay resident.
template <typename T>
void release_slack(const std::vector<T>& v) {
  static const auto page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto used = reinterpret_cast<std::uintptr_t>(v.data() + v.size());
  const auto end = reinterpret_cast<std::uintptr_t>(v.data() + v.capacity());
  const std::uintptr_t lo = (used + page - 1) & ~(page - 1);
  const std::uintptr_t hi = end & ~(page - 1);
  if (lo < hi) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

}  // namespace

TtfPool TtfPoolBuilder::finish() {
  release_slack(points_);
  release_slack(meta_);
  release_slack(bucket_idx_);
  TtfPool out(view_.period_);
  out.points_ = ConstArray(std::move(points_));
  out.meta_ = ConstArray(std::move(meta_));
  out.bucket_idx_ = ConstArray(std::move(bucket_idx_));
  points_.clear();
  meta_.clear();
  bucket_idx_.clear();
  refresh_view();
  return out;
}

void TtfPool::arrival_tn_scalar(std::uint32_t f, const Time* ts, std::size_t n,
                                Time* out) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = arrival(f, ts[i]);
}

void TtfPool::arrival_tn_sorted(std::uint32_t f, const Time* ts, std::size_t n,
                                Time* out) const {
  arrival_tn_sorted_fused(
      f, n, [ts](std::size_t i) { return ts[i]; },
      [out](std::size_t i, Time a) { out[i] = a; });
}

#if PCONN_HAVE_AVX2_DISPATCH

// The kernel uses the bucket-mapping identity
//   bucket_of(tau, b) = ((tau << b) * inv) >> 32 = (tau * inv) >> (32 - b)
// with tau * inv < 2^32 (tau < period, inv = floor(2^32 / period)), so the
// per-lane bucket is a 32-bit multiply plus a variable shift — no division
// anywhere. All comparisons run in signed 32-bit lanes, which is safe
// because times stay below 2^30 (asserted in reset) and pool indices below
// 2^29 (asserted in add).

namespace {

/// Per-32-bit-lane high half of the unsigned product a*b.
[[gnu::target("avx2")]] inline __m256i mul_hi_epu32(__m256i a, __m256i b) {
  const __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(a, b), 32);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32),
                                       _mm256_srli_epi64(b, 32));
  // even holds lanes 0,2,.. in the low 64-bit halves; odd's products sit
  // with their high 32 bits exactly in the odd lane positions.
  return _mm256_blend_epi32(even, odd, 0b10101010);
}

}  // namespace

[[gnu::target("avx2")]] void TtfPool::arrival_tn_avx2(std::uint32_t f,
                                                      const Time* ts,
                                                      std::size_t n,
                                                      Time* out) const {
  const TtfMeta& m = meta_[f];
  if (m.count == 0) {
    std::fill(out, out + n, kInfTime);
    return;
  }
  const int* const bidx_base = reinterpret_cast<const int*>(bucket_idx_.data());
  const int* const pts_base = reinterpret_cast<const int*>(points_.data());
  const std::uint32_t inv32 = static_cast<std::uint32_t>(inv_period_);

  const __m256i vinv = _mm256_set1_epi32(static_cast<int>(inv32));
  const __m256i vperiod = _mm256_set1_epi32(static_cast<int>(period_));
  const __m256i vperiod_m1 =
      _mm256_set1_epi32(static_cast<int>(period_ - 1));
  const __m256i vfirst = _mm256_set1_epi32(static_cast<int>(m.first));
  const __m256i vend = _mm256_set1_epi32(static_cast<int>(m.first + m.count));
  const __m256i vbucket0 = _mm256_set1_epi32(static_cast<int>(m.bucket0));
  const __m128i vshift =
      _mm_cvtsi32_si128(static_cast<int>(32 - m.log2b));

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ts + i));
    // tau = t % period via the truncated reciprocal: the quotient estimate
    // undershoots by at most one, fixed with a single conditional subtract.
    const __m256i q = mul_hi_epu32(t, vinv);
    __m256i tau = _mm256_sub_epi32(t, _mm256_mullo_epi32(q, vperiod));
    const __m256i over = _mm256_cmpgt_epi32(tau, vperiod_m1);
    tau = _mm256_sub_epi32(tau, _mm256_and_si256(over, vperiod));
    // bucket = (tau * inv) >> (32 - log2b); tau * inv < 2^32, so the low
    // 32-bit product is exact.
    const __m256i bucket =
        _mm256_srl_epi32(_mm256_mullo_epi32(tau, vinv), vshift);
    __m256i pos = _mm256_i32gather_epi32(
        bidx_base, _mm256_add_epi32(vbucket0, bucket), 4);
    for (;;) {
      const __m256i in_range = _mm256_cmpgt_epi32(vend, pos);
      if (_mm256_testz_si256(in_range, in_range)) break;
      const __m256i dep = _mm256_mask_i32gather_epi32(
          tau, pts_base, _mm256_slli_epi32(pos, 1), in_range, 4);
      const __m256i advance =
          _mm256_and_si256(in_range, _mm256_cmpgt_epi32(tau, dep));
      if (_mm256_testz_si256(advance, advance)) break;
      pos = _mm256_sub_epi32(pos, advance);
    }
    pos = _mm256_blendv_epi8(vfirst, pos, _mm256_cmpgt_epi32(vend, pos));
    const __m256i p2 = _mm256_slli_epi32(pos, 1);
    const __m256i dep = _mm256_i32gather_epi32(pts_base + 0, p2, 4);
    const __m256i dur = _mm256_i32gather_epi32(pts_base + 1, p2, 4);
    const __m256i wrap = _mm256_cmpgt_epi32(tau, dep);
    const __m256i wait = _mm256_add_epi32(_mm256_sub_epi32(dep, tau),
                                          _mm256_and_si256(wrap, vperiod));
    const __m256i res = _mm256_add_epi32(t, _mm256_add_epi32(wait, dur));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), res);
  }
  arrival_tn_scalar(f, ts + i, n - i, out + i);
}

#endif  // PCONN_HAVE_AVX2_DISPATCH

void TtfPool::arrival_tn(std::uint32_t f, const Time* ts, std::size_t n,
                         Time* out) const {
#if PCONN_HAVE_AVX2_DISPATCH
  // period_ == 1 would need the 33-bit reciprocal; never a real timetable.
  if (n >= 8 && period_ > 1 && cpu_has_avx2()) {
    arrival_tn_avx2(f, ts, n, out);
    return;
  }
#endif
  arrival_tn_scalar(f, ts, n, out);
}

}  // namespace pconn
