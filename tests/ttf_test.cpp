#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/ttf.hpp"
#include "graph/ttf_pool.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

constexpr Time kP = kDayseconds;

/// The function pool_of appends to force a pool wide: one ride of
/// 2^(32 - dep_bits) s, which no compact word over `period` holds (far
/// below the 2^30 time range).
Ttf wide_ride(Time period) {
  const Time dur = Time{1} << (32 - TtfPool::compact_dep_bits(period));
  return Ttf::build({{0, dur}}, period);
}

/// `ttfs` as one pool in the format asked for: built as they are (each
/// test's durations fit a compact word), or forced wide by wide_ride() as
/// one more function. Asserts the indices add() returns and the format
/// finish() picked.
TtfPool pool_of(const std::vector<Ttf>& ttfs, Time period, bool wide) {
  TtfPoolBuilder builder(period);
  for (std::size_t i = 0; i < ttfs.size(); ++i) {
    EXPECT_EQ(builder.add(ttfs[i]), i);
  }
  if (wide) {
    EXPECT_EQ(builder.add(wide_ride(period)), ttfs.size());
  }
  TtfPool pool = builder.finish();
  EXPECT_EQ(pool.dep_bits(), wide ? 0u : TtfPool::compact_dep_bits(period));
  return pool;
}

/// Every read path of `pool` against the Ttfs it was built from, for the
/// entry times `ts` (ascending): eval and point_used per time, arrival_tn
/// as one batch (the AVX2 gather for its blocks of 8 where the CPU has it,
/// then the scalar tail) and in chunks of 7 (the scalar loop only), and
/// the sorted merge both as arrival_tn_sorted and fused.
void expect_pool_equals_ttfs(const TtfPool& pool, const std::vector<Ttf>& ttfs,
                             const std::vector<Time>& ts) {
  std::vector<Time> out(ts.size());
  for (std::uint32_t f = 0; f < ttfs.size(); ++f) {
    const Ttf& ref = ttfs[f];
    ASSERT_EQ(pool.points(f).size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      ASSERT_EQ(pool.points(f)[k], ref.points()[k]) << "f=" << f;
    }
    for (const Time t : ts) {
      ASSERT_EQ(pool.eval(f, t), ref.eval(t)) << "f=" << f << " t=" << t;
      if (!ref.empty()) {
        ASSERT_EQ(pool.point_used(f, t), ref.point_used(t))
            << "f=" << f << " t=" << t;
      }
    }
    pool.arrival_tn(f, ts.data(), ts.size(), out.data());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(out[i], ref.arrival(ts[i]))
          << "batch f=" << f << " t=" << ts[i];
    }
    std::fill(out.begin(), out.end(), 0);
    for (std::size_t i = 0; i < ts.size(); i += 7) {
      pool.arrival_tn(f, ts.data() + i,
                      std::min<std::size_t>(7, ts.size() - i), out.data() + i);
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(out[i], ref.arrival(ts[i]))
          << "tail f=" << f << " t=" << ts[i];
    }
    pool.arrival_tn_sorted(f, ts.data(), ts.size(), out.data());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(out[i], ref.arrival(ts[i]))
          << "sorted f=" << f << " t=" << ts[i];
    }
    std::size_t emitted = 0;
    pool.arrival_tn_sorted_fused(
        f, ts.size(), [&](std::size_t i) { return ts[i]; },
        [&](std::size_t i, Time a) {
          ASSERT_EQ(i, emitted++);
          ASSERT_EQ(a, ref.arrival(ts[i]))
              << "fused f=" << f << " t=" << ts[i];
        });
    ASSERT_EQ(emitted, ts.size());
  }
}

TEST(Ttf, EmptyEvaluatesToInfinity) {
  Ttf f = Ttf::build({}, kP);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.eval(123), kInfTime);
  EXPECT_EQ(f.arrival(123), kInfTime);
  EXPECT_EQ(f.min_duration(), kInfTime);
}

TEST(Ttf, SinglePointWaitsCyclically) {
  Ttf f = Ttf::build({{1000, 600}}, kP);
  EXPECT_EQ(f.eval(500), 500u + 600);   // wait 500, ride 600
  EXPECT_EQ(f.eval(1000), 600u);        // departs immediately
  EXPECT_EQ(f.eval(1001), kP - 1 + 600);  // wraps to tomorrow
  EXPECT_EQ(f.arrival(kP + 500), kP + 1000 + 600);
}

TEST(Ttf, PicksNextDeparture) {
  Ttf f = Ttf::build({{1000, 600}, {2000, 600}, {3000, 600}}, kP);
  EXPECT_EQ(f.eval(999), 1u + 600);
  EXPECT_EQ(f.eval(1001), 999u + 600);
  EXPECT_EQ(f.eval(2500), 500u + 600);
  EXPECT_EQ(f.eval(3001), kP - 3001 + 1000 + 600);
}

TEST(Ttf, DuplicateDeparturesKeepFastest) {
  Ttf f = Ttf::build({{1000, 900}, {1000, 600}, {1000, 700}}, kP);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.eval(1000), 600u);
}

TEST(Ttf, LinearDominationPruned) {
  // Waiting 100s for a 600s ride beats the 800s ride at t=1000.
  Ttf f = Ttf::build({{1000, 800}, {1100, 600}}, kP);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.points()[0].dep, 1100u);
  EXPECT_EQ(f.eval(1000), 100u + 600);
}

TEST(Ttf, CascadingDomination) {
  // C dominates B, and after B is gone C also dominates A.
  Ttf f = Ttf::build({{0, 1000}, {100, 950}, {200, 100}}, kP);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.points()[0].dep, 200u);
}

TEST(Ttf, WrapAroundDomination) {
  // A late long ride is dominated by the early next-morning departure:
  // dep 23:59 dur 10h vs dep 00:10(+1d) dur 30min.
  Time late = 23 * 3600 + 59 * 60;
  Ttf f = Ttf::build({{600, 1800}, {late, 36000}}, kP);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.points()[0].dep, 600u);
  EXPECT_TRUE(f.is_fifo());
}

TEST(Ttf, NonDominatedPointsAllKept) {
  Ttf f = Ttf::build({{1000, 600}, {2000, 600}, {3000, 600}}, kP);
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.is_fifo());
}

TEST(Ttf, MinDuration) {
  Ttf f = Ttf::build({{1000, 600}, {2000, 300}, {50000, 900}}, kP);
  EXPECT_EQ(f.min_duration(), 300u);
}

TEST(Ttf, PointUsedMatchesEval) {
  Ttf f = Ttf::build({{1000, 600}, {2000, 500}, {3000, 400}}, kP);
  for (Time t : {0u, 999u, 1000u, 1500u, 2999u, 3000u, 4000u}) {
    const TtfPoint& p = f.points()[f.point_used(t)];
    EXPECT_EQ(f.eval(t), delta(t, p.dep, kP) + p.dur);
  }
}

// Property sweep: pruned function must agree everywhere with the brute
// force minimum over *all* original points, and must be FIFO.
class TtfRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TtfRandomTest, EquivalentToBruteForceAndFifo) {
  Rng rng(GetParam());
  const Time period = 10000;
  std::size_t n = 1 + rng.next_below(30);
  std::vector<TtfPoint> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<Time>(rng.next_below(period)),
                   static_cast<Time>(1 + rng.next_below(3 * period))});
  }
  Ttf f = Ttf::build(pts, period);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(f.is_fifo());
  for (Time t = 0; t < period; t += 97) {
    Time brute = kInfTime;
    for (const TtfPoint& p : pts) {
      brute = std::min(brute, delta(t, p.dep, period) + p.dur);
    }
    EXPECT_EQ(f.eval(t), brute) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TtfRandomTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// ------------------------------------------------------------------ pool ---

TEST(TtfPool, EmptyFunctionStaysInfinite) {
  TtfPoolBuilder builder(kP);
  std::uint32_t f = builder.add(Ttf::build({}, kP));
  const TtfPool pool = builder.finish();
  EXPECT_TRUE(pool.empty_at(f));
  EXPECT_EQ(pool.eval(f, 123), kInfTime);
  EXPECT_EQ(pool.arrival(f, 123), kInfTime);
}

TEST(TtfPool, MatchesTtfOnHandCases) {
  TtfPoolBuilder builder(kP);
  Ttf a = Ttf::build({{1000, 600}, {2000, 500}, {3000, 400}}, kP);
  Ttf b = Ttf::build({{600, 1800}, {23 * 3600 + 59 * 60, 36000}}, kP);
  std::uint32_t ia = builder.add(a), ib = builder.add(b);
  const TtfPool pool = builder.finish();
  for (Time t : {0u, 999u, 1000u, 1500u, 2999u, 3000u, 4000u, kP - 1,
                 kP + 777u, 3 * kP + 12345u}) {
    EXPECT_EQ(pool.eval(ia, t), a.eval(t)) << "t=" << t;
    EXPECT_EQ(pool.point_used(ia, t), a.point_used(t)) << "t=" << t;
    EXPECT_EQ(pool.eval(ib, t), b.eval(t)) << "t=" << t;
    EXPECT_EQ(pool.point_used(ib, t), b.point_used(t)) << "t=" << t;
  }
}

// The tentpole guarantee of the indexed evaluation: bit-identical to both
// the seed binary search (Ttf::eval / point_used) and the exhaustive
// minimum over all points, on randomized point sets of many shapes and
// periods, at every time of the period plus wrap-around samples.
class TtfPoolRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TtfPoolRandomTest, IndexedEvalEqualsSearchAndBruteForce) {
  Rng rng(GetParam() * 977 + 5);
  const Time period = 2000 + static_cast<Time>(rng.next_below(20000));
  std::vector<Ttf> ttfs;
  // A mixed bag of sizes, including 1-point functions (the constant-ish
  // case) and sizes around the bucket-count power-of-two boundaries.
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 17u, 33u, 70u}) {
    std::vector<TtfPoint> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(period)),
                     static_cast<Time>(1 + rng.next_below(3 * period))});
    }
    ttfs.push_back(Ttf::build(std::move(pts), period));
  }
  for (const bool wide : {false, true}) {
    const TtfPool pool = pool_of(ttfs, period, wide);
    for (std::uint32_t f = 0; f < ttfs.size(); ++f) {
      const Ttf& ref = ttfs[f];
      ASSERT_EQ(pool.points(f).size(), ref.size());
      for (Time t = 0; t < period; ++t) {
        ASSERT_EQ(pool.eval(f, t), ref.eval(t))
            << "wide=" << wide << " f=" << f << " t=" << t;
        ASSERT_EQ(pool.point_used(f, t), ref.point_used(t))
            << "wide=" << wide << " f=" << f << " t=" << t;
      }
      // Absolute times beyond the period reduce like the seed's.
      for (Time t : {period, period + 1, 2 * period + period / 2,
                     5 * period + period - 1}) {
        ASSERT_EQ(pool.arrival(f, t), ref.arrival(t))
            << "wide=" << wide << " f=" << f << " t=" << t;
      }
      // Exhaustive reference over the *kept* points.
      for (Time t = 0; t < period; t += 61) {
        Time brute = kInfTime;
        for (const TtfPoint& p : pool.points(f)) {
          brute = std::min(brute, delta(t, p.dep, period) + p.dur);
        }
        ASSERT_EQ(pool.eval(f, t), brute)
            << "wide=" << wide << " f=" << f << " t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TtfPoolRandomTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// The vectorized arrival_tn kernel (AVX2 gather under runtime dispatch —
// this sweep IS the AVX2-vs-scalar differential on hardware that has it,
// and a scalar-vs-scalar identity check otherwise) must agree with the
// per-entry scalar evaluation at every second of two periods.
TEST(TtfPool, VectorArrivalTnMatchesScalarPerSecond) {
  Rng rng(654);
  const Time period = 2000 + static_cast<Time>(rng.next_below(9000));
  std::vector<Ttf> ttfs;
  for (std::size_t n : {1u, 3u, 9u, 40u}) {
    std::vector<TtfPoint> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(period)),
                     static_cast<Time>(1 + rng.next_below(period))});
    }
    ttfs.push_back(Ttf::build(std::move(pts), period));
  }
  // Every second of two periods in one call per function: the batch spans
  // the wrap, exercising both the reciprocal modulo of the gather kernel
  // and the re-anchor path of the sorted merge.
  std::vector<Time> ts;
  for (Time t = 0; t < 2 * period; ++t) ts.push_back(t);
  std::vector<Time> shuffled = ts;
  rng.shuffle(shuffled);
  std::vector<Time> sparse;
  for (Time t = 17; t < 9 * period; t += 1237) sparse.push_back(t);
  for (const bool wide : {false, true}) {
    const TtfPool pool = pool_of(ttfs, period, wide);
    expect_pool_equals_ttfs(pool, ttfs, ts);
    // Unsorted batches through the gather kernel only.
    std::vector<Time> out(shuffled.size());
    for (std::uint32_t f = 0; f < ttfs.size(); ++f) {
      pool.arrival_tn(f, shuffled.data(), shuffled.size(), out.data());
      for (std::size_t i = 0; i < shuffled.size(); ++i) {
        ASSERT_EQ(out[i], ttfs[f].arrival(shuffled[i])) << "wide=" << wide;
      }
    }
    // Sorted batches with multi-period gaps (the re-anchor division path).
    expect_pool_equals_ttfs(pool, ttfs, sparse);
  }
}

// The format finish() picks, at a one-day period: durations below 2^15 s
// make one word per point (dep_bits 17); one 40,000 s overnight ride makes
// the whole pool keep two words per point. Both evaluate exactly as Ttf
// does at every second of the day and past it, on every read path.
TEST(TtfPool, OneLongRideKeepsThePoolWide) {
  Rng rng(31337);
  std::vector<Ttf> ttfs;
  for (std::size_t n : {1u, 4u, 5u, 12u, 64u}) {
    std::vector<TtfPoint> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(kP)),
                     static_cast<Time>(1 + rng.next_below(5000))});
    }
    ttfs.push_back(Ttf::build(std::move(pts), kP));
  }
  ttfs.push_back(Ttf{});
  std::vector<Time> ts;
  for (Time t = 0; t < kP + 3600; ++t) ts.push_back(t);

  TtfPoolBuilder compact(kP);
  for (const Ttf& f : ttfs) compact.add(f);
  const TtfPool short_rides = compact.finish();
  EXPECT_EQ(short_rides.dep_bits(), 17u);
  EXPECT_EQ(short_rides.array_bytes()[0].size(),
            short_rides.num_points() * sizeof(std::uint32_t));
  expect_pool_equals_ttfs(short_rides, ttfs, ts);

  // An overnight ride, kept by Ttf::build next to shorter daytime ones.
  ttfs.push_back(Ttf::build({{8 * 3600, 1200}, {20 * 3600, 40'000}}, kP));
  ASSERT_EQ(ttfs.back().size(), 2u);
  TtfPoolBuilder wide(kP);
  for (const Ttf& f : ttfs) wide.add(f);
  const TtfPool long_ride = wide.finish();
  EXPECT_EQ(long_ride.dep_bits(), 0u);
  EXPECT_EQ(long_ride.array_bytes()[0].size(),
            long_ride.num_points() * sizeof(TtfPoint));
  expect_pool_equals_ttfs(long_ride, ttfs, ts);

  // Points views compare decoded points across formats and words within
  // one; the long ride differs from every other function.
  const std::uint32_t last = static_cast<std::uint32_t>(ttfs.size() - 1);
  for (std::uint32_t f = 0; f < last; ++f) {
    EXPECT_TRUE(long_ride.points(f) == short_rides.points(f)) << "f=" << f;
    EXPECT_TRUE(long_ride.points(f) == long_ride.points(f)) << "f=" << f;
    EXPECT_FALSE(long_ride.points(last) == short_rides.points(f));
    EXPECT_FALSE(long_ride.points(last) == long_ride.points(f));
  }
  EXPECT_FALSE(short_rides.points(0) == short_rides.points(1));
}

// The evaluation index on both sides of kMinIndexedPoints: functions of
// 1/2/4 points keep a single bucket, 5/16/33 points get bit_ceil(n) / 2
// (one per two points), and the pool evaluates each exactly as Ttf does.
TEST(TtfPool, IndexEvaluatesLikeTtfAcrossTheIndexedThreshold) {
  Rng rng(987);
  const Time period = kP;
  // (points, buckets) per function.
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {2, 1}, {4, 1}, {5, 4}, {16, 8}, {33, 32}};
  std::vector<Ttf> ttfs;
  std::size_t want_buckets = 0;
  for (const auto& [n, buckets] : sizes) {
    // Spaced departures with arrivals strictly increasing (also across
    // midnight), so Ttf::build keeps all n points.
    const Time slot = period / static_cast<Time>(n);
    std::vector<TtfPoint> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(i) * slot +
                         static_cast<Time>(rng.next_below(slot / 4)),
                     600 + static_cast<Time>(rng.next_below(slot / 4))});
    }
    ttfs.push_back(Ttf::build(std::move(pts), period));
    ASSERT_EQ(ttfs.back().size(), n);

    TtfPoolBuilder one(period);
    one.add(ttfs.back());
    const TtfPool single = one.finish();
    EXPECT_EQ(single.array_bytes()[2].size(), buckets * sizeof(std::uint32_t))
        << n << " points";
    want_buckets += buckets;
  }
  TtfPoolBuilder builder(period);
  for (const Ttf& f : ttfs) builder.add(f);
  const TtfPool pool = builder.finish();
  EXPECT_EQ(pool.index_bytes(),
            pool.array_bytes()[1].size() +
                want_buckets * sizeof(std::uint32_t));
  for (std::uint32_t f = 0; f < ttfs.size(); ++f) {
    for (Time t = 0; t < period; t += 97) {
      ASSERT_EQ(pool.eval(f, t), ttfs[f].eval(t)) << "f=" << f << " t=" << t;
      ASSERT_EQ(pool.point_used(f, t), ttfs[f].point_used(t))
          << "f=" << f << " t=" << t;
    }
  }
}

// The 2^16-bucket cap. At two points per bucket only a function of more
// than 131,072 points reaches it, which needs a period longer than a day
// (departures are distinct seconds): 150,000 points over a week get 2^16
// buckets, not 2^17, so the scan walks about 2.3 points per bucket. eval,
// point_used and both arrival_tn paths (the AVX2 gather for batches of 8
// or more where the CPU has it, the scalar loop below 8) equal Ttf.
TEST(TtfPool, BucketCapHoldsForAMultiDayFunction) {
  Rng rng(4242);
  const Time period = 7 * kDayseconds;
  constexpr std::size_t kPoints = 150'000;
  std::vector<TtfPoint> pts;
  for (std::size_t i = 0; i < kPoints; ++i) {
    // Departures 4 s apart, arrivals strictly increasing: all points kept.
    pts.push_back({4 * static_cast<Time>(i) +
                       static_cast<Time>(rng.next_below(2)),
                   600 + static_cast<Time>(rng.next_below(2))});
  }
  const Ttf ref = Ttf::build(std::move(pts), period);
  ASSERT_EQ(ref.size(), kPoints);
  TtfPoolBuilder builder(period);
  const std::uint32_t f = builder.add(ref);
  const TtfPool pool = builder.finish();
  ASSERT_EQ(pool.array_bytes()[2].size(),
            (std::size_t{1} << 16) * sizeof(std::uint32_t));
  // A week needs 20 departure bits; rides of 600-601 s fit the other 12,
  // so even this pool stores one word per point.
  EXPECT_EQ(pool.dep_bits(), 20u);

  // Strided absolute times over two periods (the second reduces modulo
  // the period); a 7 s stride, under the 9.2 s bucket width, lands in
  // every bucket.
  std::vector<Time> ts;
  for (Time t = 0; t < 2 * period; t += 7) ts.push_back(t);
  for (const Time t : ts) {
    ASSERT_EQ(pool.eval(f, t), ref.eval(t)) << "t=" << t;
    ASSERT_EQ(pool.point_used(f, t), ref.point_used(t)) << "t=" << t;
  }
  std::vector<Time> out(ts.size());
  pool.arrival_tn(f, ts.data(), ts.size(), out.data());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    ASSERT_EQ(out[i], ref.arrival(ts[i])) << "batch t=" << ts[i];
  }
  std::fill(out.begin(), out.end(), 0);
  for (std::size_t i = 0; i < ts.size(); i += 7) {
    pool.arrival_tn(f, ts.data() + i, std::min<std::size_t>(7, ts.size() - i),
                    out.data() + i);
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    ASSERT_EQ(out[i], ref.arrival(ts[i])) << "scalar t=" << ts[i];
  }
}

// A prefix view is the pool a TdGraph reads when it shares its overlay's
// base functions: it must evaluate bit-identically to the full pool for
// every function below n, its arrays must be prefixes of the full pool's
// arrays (same storage), and it must keep that storage alive on its own —
// in both point formats (a prefix of a wide pool is wide, even where its
// own functions would fit one word each).
TEST(TtfPool, PrefixViewSharesStorageAndEvaluatesIdentically) {
  Rng rng(2468);
  const Time period = 2000 + static_cast<Time>(rng.next_below(9000));
  std::vector<Ttf> ttfs;
  for (int f = 0; f < 30; ++f) {
    std::vector<TtfPoint> pts;
    const std::size_t n = rng.next_below(40);  // 0 = empty function
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(period)),
                     static_cast<Time>(1 + rng.next_below(3 * period))});
    }
    ttfs.push_back(Ttf::build(std::move(pts), period));
  }
  std::vector<Time> ts;
  for (Time t = 0; t < 2 * period; t += 3) ts.push_back(t);

  for (const bool wide : {false, true}) {
    std::optional<TtfPool> full(pool_of(ttfs, period, wide));
    // The functions of `full`: a wide pool also holds wide_ride().
    std::vector<Ttf> all = ttfs;
    if (wide) all.push_back(wide_ride(period));
    ASSERT_EQ(full->size(), all.size());
    const auto whole = static_cast<std::uint32_t>(full->size());
    for (const std::uint32_t n : {0u, 1u, 17u, 30u, whole}) {
      const TtfPool view = full->prefix(n);
      ASSERT_EQ(view.size(), n);
      EXPECT_EQ(view.period(), full->period());
      EXPECT_EQ(view.dep_bits(), full->dep_bits());
      const auto mine = view.array_bytes();
      const auto theirs = full->array_bytes();
      ASSERT_EQ(mine.size(), theirs.size());
      for (std::size_t a = 0; a < mine.size(); ++a) {
        EXPECT_LE(mine[a].size(), theirs[a].size()) << "array " << a;
        if (n > 0) {
          EXPECT_EQ(mine[a].data(), theirs[a].data()) << "array " << a;
        }
      }
      if (n == full->size()) {
        for (std::size_t a = 0; a < mine.size(); ++a) {
          EXPECT_EQ(mine[a].size(), theirs[a].size()) << "array " << a;
        }
      }

      std::vector<std::uint32_t> entries;
      for (std::uint32_t f = 0; f < n; ++f) {
        entries.push_back(f);
        entries.push_back(TtfPool::kConstFlag | f);
      }
      for (Time t = 0; t < 2 * period; t += 7) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
          ASSERT_EQ(view.arrival_entry(entries[i], t),
                    full->arrival_entry(entries[i], t))
              << "wide=" << wide << " n=" << n << " entry " << i;
        }
      }
      for (std::uint32_t f = 0; f < n; ++f) {
        for (Time t = 0; t < period; ++t) {
          ASSERT_EQ(view.eval(f, t), full->eval(f, t))
              << "wide=" << wide << " n=" << n << " f=" << f;
        }
      }
      const std::vector<Ttf> head(all.begin(), all.begin() + n);
      expect_pool_equals_ttfs(view, head, ts);
    }

    // The view owns a share of the storage: it outlives the full pool.
    const TtfPool view = full->prefix(17);
    std::vector<Time> before;
    for (std::uint32_t f = 0; f < 17; ++f) before.push_back(full->eval(f, 123));
    full.reset();
    for (std::uint32_t f = 0; f < 17; ++f) {
      EXPECT_EQ(view.eval(f, 123), before[f]);
    }
  }
}

// append_copy, the re-link's splice, decodes its source: functions copied
// from a compact or a wide pool evaluate bit-identically to the source in
// the builder's own view and in the pool finish() makes of them, whatever
// format that pool picks.
TEST(TtfPool, AppendCopyDecodesEitherFormat) {
  Rng rng(8642);
  std::vector<Ttf> ttfs;
  for (int f = 0; f < 24; ++f) {
    std::vector<TtfPoint> pts;
    const std::size_t n = rng.next_below(30);  // 0 = empty function
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(kP)),
                     static_cast<Time>(1 + rng.next_below(9000))});
    }
    ttfs.push_back(Ttf::build(std::move(pts), kP));
  }
  std::vector<Time> ts;
  for (Time t = 0; t < kP; t += 5) ts.push_back(t);
  const Ttf head = Ttf::build({{100, 60}, {5000, 90}, {7000, 80}}, kP);

  for (const bool wide : {false, true}) {
    const TtfPool src = pool_of(ttfs, kP, wide);
    // One function of its own first, so every copied index shifts.
    TtfPoolBuilder builder(kP);
    builder.add(head);
    builder.append_copy(src, 3, 20);
    ASSERT_EQ(builder.pool().size(), 18u);
    EXPECT_EQ(builder.pool().dep_bits(), 0u);  // the builder holds TtfPoints
    std::vector<Ttf> want = {head};
    want.insert(want.end(), ttfs.begin() + 3, ttfs.begin() + 20);
    expect_pool_equals_ttfs(builder.pool(), want, ts);
    for (std::uint32_t f = 3; f < 20; ++f) {
      for (const Time t : {Time{0}, Time{4321}, kP - 1, 2 * kP + 99}) {
        ASSERT_EQ(builder.pool().arrival(f - 2, t), src.arrival(f, t))
            << "wide=" << wide << " f=" << f;
      }
    }
    const TtfPool copied = builder.finish();
    EXPECT_EQ(copied.dep_bits(), 17u);  // no long ride came along
    expect_pool_equals_ttfs(copied, want, ts);
  }
}

}  // namespace
}  // namespace pconn
