// Pop-by-pop contract test of the three heaps the engines run
// (algo/queue_policy.hpp): the addressable binary heap of every
// single-label engine, the lazy binary heap of the multi-criteria engine
// and the contraction's lazy 4-ary heap. A randomized monotone
// operation-sequence harness drives each one against a shadow model
// (unique keys, so the valid-pop sequence is fully determined) and the
// three must pop identically.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "algo/queue_policy.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

// ---------------------------------------------------------------------------
// Operation-sequence differential: a Dijkstra-shaped monotone workload with
// unique keys, driven through one heap, checked against a shadow model.
// Returns the sequence of valid (id, key) pops for cross-heap comparison.
template <typename Queue>
std::vector<std::pair<std::uint32_t, std::uint64_t>> drive_heap(
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
    EXPECT_EQ(best.at(id), key) << "heap delivered a non-minimum key";
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
  // Drain what is left so every heap ends on the same state.
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

TEST(QueuePolicyOps, AllHeapsPopIdentically) {
  for (auto [seed, ids, rounds] :
       {std::tuple{11u, 64u, 400}, {12u, 512u, 3000}, {13u, 4096u, 8000}}) {
    auto binary = drive_heap<SpcsQueue>(seed, ids, rounds);
    auto mc = drive_heap<McQueue>(seed, ids, rounds);
    // The contraction's node-ordering queue (contraction.cpp).
    auto lazy4 = drive_heap<LazyDAryHeap<std::uint64_t, 4>>(seed, ids, rounds);
    EXPECT_EQ(binary, mc) << "seed " << seed;
    EXPECT_EQ(binary, lazy4) << "seed " << seed;
    EXPECT_FALSE(binary.empty());
  }
}

}  // namespace
}  // namespace pconn
