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
    Journey cold;
    const bool found = fresh.extract_journey_into(s, dep, t, cold);
    ASSERT_EQ(warm != nullptr, found) << "query " << i;
    if (warm) {
      EXPECT_EQ(warm->arrival, cold.arrival);
      ASSERT_EQ(warm->legs.size(), cold.legs.size());
      for (std::size_t l = 0; l < warm->legs.size(); ++l) {
        EXPECT_EQ(warm->legs[l].train, cold.legs[l].train);
        EXPECT_EQ(warm->legs[l].dep, cold.legs[l].dep);
        EXPECT_EQ(warm->legs[l].arr, cold.legs[l].arr);
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
    TimeQuery fresh(tt, g, ov);
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
  QuerySession session(tt, g, opt);
  session.overlay_time_engine(ov);
  session.overlay_spcs_engine(ov);

  std::vector<StationId> sources;
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
      // Overlay engines: core-routed time query incl. the downward sweep
      // and journey expansion.
      checksum += static_cast<std::uint64_t>(
          session.overlay_earliest_arrival(s, dep, target));
      session.overlay_time_engine(ov).run(s, dep);
      session.overlay_time_engine(ov).settle_contracted();
      checksum += static_cast<std::uint64_t>(
          session.overlay_time_engine(ov).arrival_at(target));
      if (const Journey* j = session.overlay_journey(s, dep, target)) {
        checksum += j->legs.size();
      }
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
      checksum += session.overlay_spcs_engine(ov).last_boundaries().back();
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

  QuerySession session(tt, g);
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
