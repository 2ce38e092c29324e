// Differential tests for the two queue policies (queue_policy.hpp): the
// bucket queue must drive every engine to the same results as the paper's
// binary heap, the reference oracle.
//
//  * A randomized monotone operation-sequence harness compares both SPCS
//    policies and the contraction's lazy 4-ary heap pop-by-pop against a
//    shadow model (unique keys, so the valid-pop sequence is fully
//    determined).
//  * Full SPCS one-to-all queries on generated networks of three sizes and
//    50+ random sources: identical profiles AND identical settled /
//    self-pruned / relaxed accounting for every policy (only queue-shape
//    counters — pushed / decreased / stale_popped — may differ).
//  * Station-to-station queries with stopping criterion, distance-table and
//    target pruning (the ancestor-tracking hook): identical profiles.
//  * TimeQuery / McTimeQuery / AllToOneProfiles.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "algo/all_to_one.hpp"
#include "algo/mc_query.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/queue_policy.hpp"
#include "algo/time_query.hpp"
#include "s2s/distance_table.hpp"
#include "s2s/s2s_query.hpp"
#include "s2s/transfer_selection.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

// ---------------------------------------------------------------------------
// Operation-sequence differential: a Dijkstra-shaped monotone workload with
// unique keys, driven through one policy, checked against a shadow model.
// Returns the sequence of valid (id, key) pops for cross-policy comparison.
template <typename Queue>
std::vector<std::pair<std::uint32_t, std::uint64_t>> drive_policy(
    std::uint64_t seed, std::uint32_t ids, int rounds) {
  Rng rng(seed);
  Queue q(ids);
  // Shadow model: the live best key per id, and which ids have settled.
  std::map<std::uint32_t, std::uint64_t> best;
  std::vector<bool> settled(ids, false);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pops;

  std::uint64_t serial = 0;  // unique low bits: no cross-id key ties
  auto fresh_key = [&](std::uint64_t radix) {
    return (radix << kSpcsKeyShift) | (serial++ & ((1u << kSpcsKeyShift) - 1));
  };

  // Seed the frontier.
  std::uint64_t frontier = 100;
  for (std::uint32_t i = 0; i < ids / 4 + 1; ++i) {
    std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(ids));
    if (best.count(id)) continue;
    std::uint64_t key = fresh_key(frontier + rng.next_below(50));
    best[id] = key;
    q.push(id, key);
  }

  for (int r = 0; r < rounds && !q.empty(); ++r) {
    // Pop the next valid entry; drop stale ones exactly like the engines.
    auto [id, key] = q.pop();
    if constexpr (!Queue::kAddressable) {
      if (settled[id] || best.count(id) == 0 || best[id] != key) {
        --r;  // a stale pop is not a round
        continue;
      }
    }
    EXPECT_FALSE(settled[id]);
    EXPECT_EQ(best.at(id), key) << "policy delivered a non-minimum key";
    settled[id] = true;
    best.erase(id);
    pops.emplace_back(id, key);
    frontier = key >> kSpcsKeyShift;

    // Relax: a few pushes / improvements with radix >= the popped radix.
    const int relax = 1 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < relax; ++k) {
      std::uint32_t head = static_cast<std::uint32_t>(rng.next_below(ids));
      if (settled[head]) continue;
      std::uint64_t key2 = fresh_key(frontier + rng.next_below(200));
      auto it = best.find(head);
      if (it == best.end() || key2 < it->second) {
        best[head] = key2;
        if constexpr (Queue::kAddressable) {
          q.push_or_decrease(head, key2);
        } else {
          q.push(head, key2);
        }
      }
    }
  }
  // Drain what is left so every policy ends on the same state.
  while (!q.empty()) {
    auto [id, key] = q.pop();
    if constexpr (!Queue::kAddressable) {
      if (settled[id] || best.count(id) == 0 || best[id] != key) continue;
    }
    EXPECT_FALSE(settled[id]);
    EXPECT_EQ(best.at(id), key);
    settled[id] = true;
    best.erase(id);
    pops.emplace_back(id, key);
  }
  EXPECT_TRUE(best.empty());
  return pops;
}

TEST(QueuePolicyOps, AllPoliciesPopIdentically) {
  for (auto [seed, ids, rounds] :
       {std::tuple{11u, 64u, 400}, {12u, 512u, 3000}, {13u, 4096u, 8000}}) {
    auto binary = drive_policy<SpcsBinaryQueue>(seed, ids, rounds);
    auto bucket = drive_policy<SpcsBucketQueue>(seed, ids, rounds);
    // The contraction's queue (contraction.cpp): not an engine policy, but
    // the same monotone contract.
    auto lazy = drive_policy<LazyDAryHeap<std::uint64_t, 4>>(seed, ids, rounds);
    EXPECT_EQ(binary, bucket) << "seed " << seed;
    EXPECT_EQ(binary, lazy) << "seed " << seed;
    EXPECT_FALSE(binary.empty());
  }
}

// Overflow-level exercise: keys spanning many bucket windows.
TEST(QueuePolicyOps, BucketQueueRebasesAcrossWindows) {
  constexpr std::size_t kWindow = SpcsBucketQueue::kNumBuckets;
  SpcsBucketQueue q(64);
  Rng rng(99);
  std::vector<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < 64; ++i) {
    // Radixes spread over ~20 windows; low bits unique via the id.
    std::uint64_t radix = rng.next_below(20 * kWindow);
    keys.push_back((radix << kSpcsKeyShift) | i);
    q.push(i, keys.back());
  }
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t expect : keys) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.top_key(), expect);
    EXPECT_EQ(q.pop().second, expect);
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Full-engine differentials.

struct SpcsRun {
  std::vector<Profile> profiles;
  QueryStats stats;
};

template <typename Queue>
SpcsRun run_one_to_all(const Timetable& tt, const TdGraph& g, StationId s,
                       unsigned threads) {
  ParallelSpcsOptions opt;
  opt.threads = threads;
  ParallelSpcsT<Queue> spcs(tt, g, opt);
  OneToAllResult res = spcs.one_to_all(s);
  return {std::move(res.profiles), res.stats};
}

void expect_same_search(const SpcsRun& a, const SpcsRun& b,
                        const std::string& what) {
  ASSERT_EQ(a.profiles.size(), b.profiles.size()) << what;
  for (std::size_t t = 0; t < a.profiles.size(); ++t) {
    EXPECT_EQ(a.profiles[t], b.profiles[t]) << what << ", station " << t;
  }
  // Settling accounting must be byte-identical across policies; the
  // queue-shape counters (pushed / decreased / stale_popped) differ by
  // design, and `relaxed` may jitter by equal-composite-key pop order:
  // whichever of two same-key items settles first
  // suppresses the other's relaxation attempt towards it.
  EXPECT_EQ(a.stats.settled, b.stats.settled) << what;
  EXPECT_EQ(a.stats.self_pruned, b.stats.self_pruned) << what;
}

TEST(QueuePolicySpcs, OneToAllIdenticalAcrossPoliciesAndSizes) {
  Rng rng(2024);
  // Three network sizes; 50+ sources overall, both 1 and 2 threads.
  struct Net {
    Timetable tt;
    int sources;
  };
  std::vector<Net> nets;
  nets.push_back({test::random_timetable(rng, 12, 8, 4), 20});
  nets.push_back({test::small_city(5), 18});
  nets.push_back({test::small_railway(6), 15});

  for (std::size_t n = 0; n < nets.size(); ++n) {
    const Timetable& tt = nets[n].tt;
    TdGraph g = TdGraph::build(tt);
    Rng pick(7000 + n);
    for (int i = 0; i < nets[n].sources; ++i) {
      StationId s = static_cast<StationId>(pick.next_below(tt.num_stations()));
      unsigned threads = 1 + static_cast<unsigned>(i % 2);
      const std::string what = "net " + std::to_string(n) + ", source " +
                               std::to_string(s) + ", p=" +
                               std::to_string(threads);
      auto binary = run_one_to_all<SpcsBinaryQueue>(tt, g, s, threads);
      auto bucket = run_one_to_all<SpcsBucketQueue>(tt, g, s, threads);
      expect_same_search(binary, bucket, what + " [bucket]");
      EXPECT_EQ(bucket.stats.decreased, 0u) << what;
    }
  }
}

TEST(QueuePolicySpcs, StationToStationWithTablePruningIdenticalProfiles) {
  Timetable tt = test::small_railway(11);
  TdGraph g = TdGraph::build(tt);
  StationGraph sg = StationGraph::build(tt);
  auto transfer = select_transfer_by_contraction(
      sg, tt, std::max<std::size_t>(2, tt.num_stations() / 10));
  ParallelSpcsOptions po;
  po.threads = 2;
  DistanceTable dt = DistanceTable::build(tt, g, transfer, po);

  S2sOptions so;
  so.threads = 2;
  Rng rng(31);
  for (int i = 0; i < 12; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    S2sQueryEngineT<SpcsBinaryQueue> binary(tt, g, sg, &dt, so);
    S2sQueryEngineT<SpcsBucketQueue> bucket(tt, g, sg, &dt, so);
    const Profile expect = binary.query(s, t).profile;
    const std::string what =
        "s2s " + std::to_string(s) + " -> " + std::to_string(t);
    test::expect_same_function(expect, bucket.query(s, t).profile, tt.period(),
                               what + " [bucket]");
  }
}

TEST(QueuePolicyTimeQuery, AllPoliciesAgree) {
  Timetable tt = test::small_city(3);
  TdGraph g = TdGraph::build(tt);
  TimeQueryT<TimeBinaryQueue> binary(tt, g);
  TimeQueryT<TimeBucketQueue> bucket(tt, g);
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    Time tau = static_cast<Time>(rng.next_below(tt.period()));
    binary.run(s, tau);
    bucket.run(s, tau);
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      EXPECT_EQ(binary.arrival_at(v), bucket.arrival_at(v));
    }
    // Without a target every reachable node settles exactly once under
    // both policies.
    EXPECT_EQ(binary.stats().settled, bucket.stats().settled);
    EXPECT_EQ(binary.stats().stale_popped, 0u);
  }
}

TEST(QueuePolicyMcQuery, AllPoliciesAgree) {
  Timetable tt = test::small_city(8);
  TdGraph g = TdGraph::build(tt);
  McTimeQueryT<McBinaryQueue> binary(tt, g);
  McTimeQueryT<McBucketQueue> bucket(tt, g);
  Rng rng(29);
  for (int i = 0; i < 6; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    Time tau = static_cast<Time>(rng.next_below(tt.period()));
    binary.run(s, tau);
    bucket.run(s, tau);
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      const auto fb = binary.pareto(v);
      const auto fk = bucket.pareto(v);
      ASSERT_EQ(fb.size(), fk.size()) << "station " << v;
      for (std::size_t l = 0; l < fb.size(); ++l) {
        EXPECT_EQ(fb[l], fk[l]) << "station " << v;
      }
    }
  }
}

TEST(QueuePolicyAllToOne, AllPoliciesAgree) {
  Timetable tt = test::small_railway(9);
  AllToOneProfilesT<SpcsBinaryQueue> binary(tt, {});
  AllToOneProfilesT<SpcsBucketQueue> bucket(tt, {});
  Rng rng(37);
  for (int i = 0; i < 4; ++i) {
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    const OneToAllResult rb = binary.all_to_one(t);
    const OneToAllResult rk = bucket.all_to_one(t);
    ASSERT_EQ(rb.profiles.size(), rk.profiles.size());
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      EXPECT_EQ(rb.profiles[v], rk.profiles[v]) << "target " << t << " @" << v;
    }
  }
}

}  // namespace
}  // namespace pconn
