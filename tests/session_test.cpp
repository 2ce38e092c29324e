// QuerySession correctness and the workspace-reuse guarantees:
//  * differential: query N on a warm session produces byte-identical
//    profiles / journeys / Pareto fronts to a freshly constructed engine;
//  * allocation guard: after warm-up, repeated queries on a session perform
//    zero heap allocations (global operator new/delete counters,
//    tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "algo/contraction.hpp"
#include "algo/session.hpp"
#include "graph/station_graph.hpp"
#include "s2s/transfer_selection.hpp"
#include "test_util.hpp"
#include "util/arena.hpp"

namespace pconn {
namespace {

using test::alloc_count;

// ---------------------------------------------------------------- arena ---

TEST(Arena, BumpAndReset) {
  Arena a(64);
  void* p1 = a.allocate(16, 8);
  void* p2 = a.allocate(16, 8);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(a.bytes_used(), 32u);
  EXPECT_GE(a.bytes_reserved(), 64u);
  // Oversized request gets its own block.
  void* p3 = a.allocate(1024, 8);
  EXPECT_NE(p3, nullptr);
  EXPECT_GE(a.block_count(), 2u);
  const std::size_t reserved = a.bytes_reserved();
  a.reset();
  EXPECT_EQ(a.bytes_used(), 0u);
  EXPECT_EQ(a.bytes_reserved(), reserved);  // blocks are kept
  // After reset the same memory is handed out again.
  void* q1 = a.allocate(16, 8);
  EXPECT_EQ(q1, p1);
}

TEST(Arena, AllocatorBacksVectors) {
  Arena a;
  ArenaAllocator<int> alloc(&a);
  std::vector<int, ArenaAllocator<int>> v(alloc);
  v.assign(1000, 42);
  EXPECT_GE(a.bytes_used(), 1000 * sizeof(int));
  std::vector<int, ArenaAllocator<int>> w(std::move(v));
  EXPECT_EQ(w.size(), 1000u);
  EXPECT_EQ(w[999], 42);
}

TEST(Arena, UnboundAllocatorFallsBackToHeap) {
  std::vector<int, ArenaAllocator<int>> v;  // no arena bound
  v.assign(100, 7);
  EXPECT_EQ(v[99], 7);
}

// The THP hint (first step of the NUMA/hugepage roadmap item): large
// blocks come back 2 MiB-aligned and fully usable, small blocks are
// untouched, and the bytes_used accounting a session's capacity planning
// reads is identical with and without the hint.
TEST(Arena, HugepageHintAlignsLargeBlocksAndKeepsAccounting) {
  Arena plain(1024), huge(1024);
  huge.set_hugepage_hint(true);
  EXPECT_TRUE(huge.hugepage_hint());
  for (Arena* a : {&plain, &huge}) {
    void* small = a->allocate(512, 8);
    EXPECT_NE(small, nullptr);
    auto* big = static_cast<std::byte*>(
        a->allocate(3 * (std::size_t{1} << 20), 64));
    ASSERT_NE(big, nullptr);
    big[0] = std::byte{1};  // the mapping is real memory
    big[3 * (std::size_t{1} << 20) - 1] = std::byte{2};
  }
  EXPECT_EQ(plain.bytes_used(), huge.bytes_used());
  // The hinted block is huge-page aligned (madvise needs page alignment;
  // 2 MiB alignment lets THP back the whole block).
  Arena aligned(Arena::kHugeBlockBytes);
  aligned.set_hugepage_hint(true);
  auto addr = reinterpret_cast<std::uintptr_t>(
      aligned.allocate(Arena::kHugeBlockBytes, 8));
  EXPECT_EQ(addr % Arena::kHugeBlockBytes, 0u);
  // Hint off (the default without PCONN_HUGEPAGES): no alignment promise,
  // reserve/use accounting unchanged — scratch_bytes_reserved() reporting
  // does not depend on the hint.
  EXPECT_GE(aligned.bytes_reserved(), Arena::kHugeBlockBytes);
}

// The NUMA half of the NUMA/THP roadmap item: pinning an arena to a node
// must leave every byte usable and all accounting identical — mbind and
// the first-touch pass are placement hints, never semantics. (On this CI
// container node 0 is the only node; the pinned path still executes.)
TEST(Arena, NumaPinningKeepsAccountingAndMemoryUsable) {
  Arena plain(1024), pinned(1024);
  const int node = Arena::current_numa_node();
  pinned.set_numa_node(node >= 0 ? node : 0);
  if (Arena::numa_env_enabled()) {
    EXPECT_EQ(pinned.numa_node(), node >= 0 ? node : 0);
  }
  for (Arena* a : {&plain, &pinned}) {
    // One small (below the pinning threshold) and one large block.
    auto* small = static_cast<std::byte*>(a->allocate(512, 8));
    small[0] = std::byte{1};
    const std::size_t big_bytes = 3 * Arena::kDefaultBlockBytes;
    auto* big = static_cast<std::byte*>(a->allocate(big_bytes, 64));
    ASSERT_NE(big, nullptr);
    big[0] = std::byte{1};
    big[big_bytes - 1] = std::byte{2};
    EXPECT_EQ(big[big_bytes - 1], std::byte{2});
  }
  EXPECT_EQ(plain.bytes_used(), pinned.bytes_used());
  EXPECT_EQ(plain.block_count(), pinned.block_count());
  // Pinning off (-1): explicitly a no-op.
  Arena off(1024);
  off.set_numa_node(-1);
  EXPECT_EQ(off.numa_node(), -1);
  void* p = off.allocate(Arena::kDefaultBlockBytes, 8);
  EXPECT_NE(p, nullptr);
}

// --------------------------------------------------------- differential ---

// Warm session vs fresh engines: byte-identical results on query N.
TEST(QuerySession, WarmEqualsFreshProfiles) {
  Timetable tt = test::small_city(21);
  TdGraph g = TdGraph::build(tt);
  QuerySessionOptions opt;
  opt.threads = 2;
  QuerySession session(tt, g, opt);

  Rng rng_sources(99);
  for (int i = 0; i < 8; ++i) {
    StationId s = static_cast<StationId>(
        rng_sources.next_below(tt.num_stations()));
    const OneToAllResult& warm = session.one_to_all(s);
    // A fresh engine per query — the cold path the session obsoletes.
    ParallelSpcs fresh(tt, g, opt.spcs());
    OneToAllResult cold = fresh.one_to_all(s);
    ASSERT_EQ(warm.profiles.size(), cold.profiles.size());
    for (StationId v = 0; v < warm.profiles.size(); ++v) {
      EXPECT_EQ(warm.profiles[v], cold.profiles[v])
          << "source " << s << " target " << v << " query " << i;
    }
    EXPECT_EQ(warm.stats.settled, cold.stats.settled);
  }
}

TEST(QuerySession, WarmEqualsFreshJourneysAndPareto) {
  Timetable tt = test::small_city(22);
  TdGraph g = TdGraph::build(tt);
  QuerySession session(tt, g);

  Rng rng(123);
  for (int i = 0; i < 12; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    Time dep = static_cast<Time>(rng.next_below(kDayseconds));

    const Journey* warm = session.journey(s, dep, t);
    TimeQuery fresh(tt, g);
    fresh.run(s, dep, t);
    auto cold = extract_journey(tt, g, fresh, s, dep, t);
    ASSERT_EQ(warm != nullptr, cold.has_value()) << "query " << i;
    if (warm) {
      EXPECT_EQ(warm->arrival, cold->arrival);
      ASSERT_EQ(warm->legs.size(), cold->legs.size());
      for (std::size_t l = 0; l < warm->legs.size(); ++l) {
        EXPECT_EQ(warm->legs[l].train, cold->legs[l].train);
        EXPECT_EQ(warm->legs[l].dep, cold->legs[l].dep);
        EXPECT_EQ(warm->legs[l].arr, cold->legs[l].arr);
      }
    }

    auto warm_front = session.pareto(s, dep, t);
    McTimeQuery fresh_mc(tt, g);
    fresh_mc.run(s, dep);
    auto cold_front = fresh_mc.pareto(t);
    ASSERT_EQ(warm_front.size(), cold_front.size()) << "query " << i;
    for (std::size_t l = 0; l < warm_front.size(); ++l) {
      EXPECT_EQ(warm_front[l], cold_front[l]);
    }
  }
}

TEST(QuerySession, WarmEqualsFreshS2s) {
  Timetable tt = test::small_railway(23);
  TdGraph g = TdGraph::build(tt);
  StationGraph sg = StationGraph::build(tt);
  auto transfer = select_transfer_fraction(sg, tt, 0.25);
  ParallelSpcsOptions po;
  DistanceTable dt = DistanceTable::build(tt, g, transfer, po);

  QuerySession session(tt, g);
  session.s2s_engine(sg, &dt);

  Rng rng(321);
  for (int i = 0; i < 10; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    const StationQueryResult& warm = session.s2s_query(s, t);
    S2sQueryEngine fresh(tt, g, sg, &dt, S2sOptions{});
    StationQueryResult cold = fresh.query(s, t);
    EXPECT_EQ(warm.profile, cold.profile)
        << "s2s " << s << " -> " << t << " query " << i;
  }
}

// The bucket/fast configuration agrees with the paper configuration on a
// warm session as well (ties the queue-policy differential tests into the
// session layer).
TEST(QuerySession, FastConfigurationMatchesPaperConfiguration) {
  Timetable tt = test::small_city(24);
  TdGraph g = TdGraph::build(tt);
  QuerySession paper(tt, g);
  FastQuerySession fast(tt, g);
  Rng rng(55);
  for (int i = 0; i < 6; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    const OneToAllResult& a = paper.one_to_all(s);
    const OneToAllResult& b = fast.one_to_all(s);
    ASSERT_EQ(a.profiles.size(), b.profiles.size());
    for (StationId v = 0; v < a.profiles.size(); ++v) {
      EXPECT_EQ(a.profiles[v], b.profiles[v]) << "source " << s;
    }
    Time dep = static_cast<Time>(rng.next_below(kDayseconds));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    EXPECT_EQ(paper.earliest_arrival(s, dep, t),
              fast.earliest_arrival(s, dep, t));
    // Multi-criteria differential: the bucket policy (monotone composite
    // keys) and the lazy binary heap settle identical Pareto fronts.
    auto pf = paper.pareto(s, dep, t);
    auto ff = fast.pareto(s, dep, t);
    ASSERT_EQ(pf.size(), ff.size()) << "pareto " << s << " -> " << t;
    for (std::size_t l = 0; l < pf.size(); ++l) EXPECT_EQ(pf[l], ff[l]);
  }
}

// Warm overlay engines match fresh ones and the flat engines (the deep
// overlay-vs-flat differentials live in tests/contraction_test.cpp; this
// ties them into the session layer).
TEST(QuerySession, WarmOverlayEqualsFreshAndFlat) {
  Timetable tt = test::small_city(28);
  TdGraph g = TdGraph::build(tt);
  OverlayGraph ov = contract_graph(tt, g);
  QuerySession session(tt, g);
  session.overlay_time_engine(ov);

  Rng rng(42);
  for (int i = 0; i < 8; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    StationId t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    Time dep = static_cast<Time>(rng.next_below(kDayseconds));
    const Time warm = session.overlay_earliest_arrival(s, dep, t);
    OverlayTimeQuery fresh(tt, g, ov);
    fresh.run(s, dep, t);
    EXPECT_EQ(warm, fresh.arrival_at(t)) << s << "->" << t << " at " << dep;
    EXPECT_EQ(warm, session.earliest_arrival(s, dep, t)) << "overlay vs flat";
  }
}

// ----------------------------------------------------- allocation guard ---

// After a warm-up pass over a fixed query set, re-running the same set on
// the same session must not allocate at all. This is the tentpole
// guarantee: steady-state queries are allocation-free.
TEST(QuerySession, WarmQueriesDoNotAllocate) {
  Timetable tt = test::small_city(25);
  TdGraph g = TdGraph::build(tt);
  OverlayGraph ov = contract_graph(tt, g);
  QuerySessionOptions opt;
  opt.threads = 2;
  FastQuerySession session(tt, g, opt);
  session.overlay_time_engine(ov);
  session.overlay_lc_engine(ov);
  session.overlay_spcs_engine(ov);

  std::vector<StationId> sources;
  std::vector<std::uint32_t> part_buf;
  Profile node_profile_buf;
  Rng rng(77);
  for (int i = 0; i < 4; ++i) {
    sources.push_back(
        static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  const StationId target = sources.back();
  const Time dep = 8 * 3600;

  std::uint64_t checksum_warmup = 0, checksum_measured = 0;
  auto run_mix = [&](std::uint64_t& checksum) {
    for (StationId s : sources) {
      const OneToAllResult& r = session.one_to_all(s);
      checksum += r.stats.settled;
      checksum += session.station_to_station(s, target).profile.size();
      checksum += static_cast<std::uint64_t>(
          session.earliest_arrival(s, dep, target));
      if (const Journey* j = session.journey(s, dep, target)) {
        checksum += j->legs.size();
      }
      checksum += session.pareto(s, dep, target).size();
      // The LC baseline is covered too since PR 3: its merge scratch is
      // arena-pooled and labels are written via capacity-reusing assign().
      session.lc_engine().run(s);
      checksum += session.lc_engine().profile(target).size();
      // Overlay engines (PR 5): core-routed time query incl. the downward
      // sweep and journey expansion, and the core LC baseline.
      checksum += static_cast<std::uint64_t>(
          session.overlay_earliest_arrival(s, dep, target));
      session.overlay_time_engine(ov).run(s, dep);
      session.overlay_time_engine(ov).settle_contracted();
      checksum += static_cast<std::uint64_t>(
          session.overlay_time_engine(ov).arrival_at(target));
      if (const Journey* j = session.overlay_journey(s, dep, target)) {
        checksum += j->legs.size();
      }
      session.overlay_lc_engine(ov).run(s);
      checksum += session.overlay_lc_engine(ov).profile(target).size();
      // Overlay-routed SPCS (this PR): partitioned ascent, the in-place
      // batched down-sweep, node-level profile assembly and the s2s
      // variant, all through the session's warm `_into` buffers.
      const OneToAllResult& ro = session.overlay_one_to_all(s);
      checksum += ro.stats.settled;
      session.overlay_spcs_engine(ov).settle_contracted();
      session.overlay_spcs_engine(ov).node_profile_into(
          s, g.num_nodes() - 1, node_profile_buf);
      checksum += node_profile_buf.size();
      checksum += session.overlay_station_to_station(s, target).profile.size();
      session.overlay_partition_connections_into(s, part_buf);
      checksum += part_buf.back();
    }
  };

  // Two warm-up passes: the first sizes every container, the second shakes
  // out capacity effects of container move-arounds.
  run_mix(checksum_warmup);
  run_mix(checksum_warmup);

  const std::uint64_t before = alloc_count();
  run_mix(checksum_measured);
  const std::uint64_t after = alloc_count();

  EXPECT_EQ(after - before, 0u)
      << "warm session queries performed " << (after - before)
      << " heap allocations";
  EXPECT_EQ(checksum_measured * 2, checksum_warmup)
      << "warm re-run changed results";
}

// The same guarantee for the accelerated s2s path (table lookups, local
// and global queries all reuse engine-owned scratch).
TEST(QuerySession, WarmS2sQueriesDoNotAllocate) {
  Timetable tt = test::small_railway(26);
  TdGraph g = TdGraph::build(tt);
  StationGraph sg = StationGraph::build(tt);
  auto transfer = select_transfer_fraction(sg, tt, 0.25);
  ParallelSpcsOptions po;
  DistanceTable dt = DistanceTable::build(tt, g, transfer, po);

  FastQuerySession session(tt, g);
  session.s2s_engine(sg, &dt);

  std::vector<std::pair<StationId, StationId>> queries;
  Rng rng(88);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        {static_cast<StationId>(rng.next_below(tt.num_stations())),
         static_cast<StationId>(rng.next_below(tt.num_stations()))});
  }

  std::uint64_t sink = 0;
  auto run_mix = [&] {
    for (auto [s, t] : queries) sink += session.s2s_query(s, t).profile.size();
  };
  run_mix();
  run_mix();

  const std::uint64_t before = alloc_count();
  run_mix();
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "warm s2s queries performed " << (after - before)
      << " heap allocations (sink " << sink << ")";
}

// Session scratch is actually arena-hosted: the reserved footprint is
// nonzero, grows only while engines warm up, then stays flat.
TEST(QuerySession, ScratchLivesInArenas) {
  Timetable tt = test::small_city(27);
  TdGraph g = TdGraph::build(tt);
  QuerySession session(tt, g);
  EXPECT_EQ(session.scratch_bytes_reserved(), 0u);  // engines not built yet
  auto run_mix = [&] {
    session.one_to_all(0);
    session.earliest_arrival(0, 8 * 3600, 1);
    session.one_to_all(1);
    session.earliest_arrival(1, 9 * 3600, 0);
  };
  run_mix();  // sizes every container to the mix's high-water mark
  const std::size_t warm = session.scratch_bytes_reserved();
  EXPECT_GT(warm, 0u);
  run_mix();
  EXPECT_EQ(session.scratch_bytes_reserved(), warm);
}

}  // namespace
}  // namespace pconn
