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
  TtfPoolBuilder builder(period);
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
    ASSERT_EQ(builder.add(ttfs.back()), ttfs.size() - 1);
  }
  const TtfPool pool = builder.finish();
  for (std::uint32_t f = 0; f < ttfs.size(); ++f) {
    const Ttf& ref = ttfs[f];
    ASSERT_EQ(pool.points(f).size(), ref.size());
    for (Time t = 0; t < period; ++t) {
      ASSERT_EQ(pool.eval(f, t), ref.eval(t)) << "f=" << f << " t=" << t;
      ASSERT_EQ(pool.point_used(f, t), ref.point_used(t))
          << "f=" << f << " t=" << t;
    }
    // Absolute times beyond the period reduce like the seed's.
    for (Time t : {period, period + 1, 2 * period + period / 2,
                   5 * period + period - 1}) {
      ASSERT_EQ(pool.arrival(f, t), ref.arrival(t)) << "f=" << f << " t=" << t;
    }
    // Exhaustive reference over the *kept* points.
    for (Time t = 0; t < period; t += 61) {
      Time brute = kInfTime;
      for (const TtfPoint& p : pool.points(f)) {
        brute = std::min(brute, delta(t, p.dep, period) + p.dur);
      }
      ASSERT_EQ(pool.eval(f, t), brute) << "f=" << f << " t=" << t;
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
  TtfPoolBuilder builder(period);
  std::vector<std::uint32_t> fs;
  for (std::size_t n : {1u, 3u, 9u, 40u}) {
    std::vector<TtfPoint> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(period)),
                     static_cast<Time>(1 + rng.next_below(period))});
    }
    fs.push_back(builder.add(Ttf::build(std::move(pts), period)));
  }
  const TtfPool pool = builder.finish();
  // Every second of two periods in one call per function: the batch spans
  // the wrap, exercising both the reciprocal modulo of the gather kernel
  // and the re-anchor path of the sorted merge.
  std::vector<Time> ts;
  for (Time t = 0; t < 2 * period; ++t) ts.push_back(t);
  std::vector<Time> out(ts.size()), sorted_out(ts.size());
  for (std::uint32_t f : fs) {
    pool.arrival_tn(f, ts.data(), ts.size(), out.data());
    pool.arrival_tn_sorted(f, ts.data(), ts.size(), sorted_out.data());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(out[i], pool.arrival(f, ts[i])) << "f=" << f << " t=" << ts[i];
      ASSERT_EQ(sorted_out[i], out[i]) << "f=" << f << " t=" << ts[i];
    }
  }
  // Unsorted batches through the gather kernel only.
  std::vector<Time> shuffled = ts;
  rng.shuffle(shuffled);
  for (std::uint32_t f : fs) {
    pool.arrival_tn(f, shuffled.data(), shuffled.size(), out.data());
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      ASSERT_EQ(out[i], pool.arrival(f, shuffled[i]));
    }
  }
  // Sorted batches with multi-period gaps (the re-anchor division path).
  std::vector<Time> sparse;
  for (Time t = 17; t < 9 * period; t += 1237) sparse.push_back(t);
  out.resize(sparse.size());
  for (std::uint32_t f : fs) {
    pool.arrival_tn_sorted(f, sparse.data(), sparse.size(), out.data());
    for (std::size_t i = 0; i < sparse.size(); ++i) {
      ASSERT_EQ(out[i], pool.arrival(f, sparse[i]));
    }
  }
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
// arrays (same storage), and it must keep that storage alive on its own.
TEST(TtfPool, PrefixViewSharesStorageAndEvaluatesIdentically) {
  Rng rng(2468);
  const Time period = 2000 + static_cast<Time>(rng.next_below(9000));
  TtfPoolBuilder builder(period);
  for (int f = 0; f < 30; ++f) {
    std::vector<TtfPoint> pts;
    const std::size_t n = rng.next_below(40);  // 0 = empty function
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Time>(rng.next_below(period)),
                     static_cast<Time>(1 + rng.next_below(3 * period))});
    }
    builder.add(Ttf::build(std::move(pts), period));
  }
  std::optional<TtfPool> full(builder.finish());
  std::vector<Time> ts;
  for (Time t = 0; t < 2 * period; t += 3) ts.push_back(t);

  for (const std::uint32_t n : {0u, 1u, 17u, 30u}) {
    const TtfPool view = full->prefix(n);
    ASSERT_EQ(view.size(), n);
    EXPECT_EQ(view.period(), full->period());
    const auto mine = view.array_bytes();
    const auto theirs = full->array_bytes();
    ASSERT_EQ(mine.size(), theirs.size());
    for (std::size_t a = 0; a < mine.size(); ++a) {
      EXPECT_LE(mine[a].size(), theirs[a].size()) << "array " << a;
      if (n > 0) EXPECT_EQ(mine[a].data(), theirs[a].data()) << "array " << a;
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
            << "n=" << n << " entry " << i;
      }
    }
    std::vector<Time> got(ts.size());
    std::vector<Time> want(ts.size());
    for (std::uint32_t f = 0; f < n; ++f) {
      for (Time t = 0; t < period; ++t) {
        ASSERT_EQ(view.eval(f, t), full->eval(f, t)) << "f=" << f;
      }
      view.arrival_tn_sorted(f, ts.data(), ts.size(), got.data());
      full->arrival_tn_sorted(f, ts.data(), ts.size(), want.data());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "f=" << f << " t=" << ts[i];
      }
    }
  }

  // The view owns a share of the storage: it outlives the full pool.
  const TtfPool view = full->prefix(17);
  std::vector<Time> before;
  for (std::uint32_t f = 0; f < 17; ++f) before.push_back(full->eval(f, 123));
  full.reset();
  for (std::uint32_t f = 0; f < 17; ++f) EXPECT_EQ(view.eval(f, 123), before[f]);
}

}  // namespace
}  // namespace pconn
