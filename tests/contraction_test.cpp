// Contraction overlay correctness:
//  * TTF link / merge property sweeps (per-second eval identity against
//    direct composition, FIFO preservation, period wrap handling) and the
//    witness cost bounds;
//  * differential overlay-vs-flat results — byte-identical arrival times
//    at EVERY node (after the downward sweep) and byte-identical reduced
//    profiles at every station (the overlay-routed ParallelSpcs against
//    the flat LC baseline in both relax bodies) on the deterministic
//    fixtures and random-network sweeps;
//  * determinism across contraction thread counts, and cap/freeze
//    behaviour (exactness never depends on caps);
//  * journey extraction through shortcut expansion.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/journey.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/time_query.hpp"
#include "test_util.hpp"
#include "timetable/snapshot.hpp"

namespace pconn {
namespace {

// ------------------------------------------------------------ primitives ---

Ttf random_ttf(Rng& rng, Time period, std::size_t max_points) {
  std::vector<TtfPoint> pts;
  const std::size_t n = 1 + rng.next_below(max_points);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<Time>(rng.next_below(period)),
                   static_cast<Time>(30 + rng.next_below(period))});
  }
  return Ttf::build(std::move(pts), period);
}

TEST(ContractionTtf, LinkMatchesDirectCompositionPerSecond) {
  const Time period = 600;  // small enough for exhaustive sweeps
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    TtfPoolBuilder builder(period);
    const Ttf a = random_ttf(rng, period, 6);
    const Ttf b = random_ttf(rng, period, 6);
    const std::uint32_t fa = builder.add(a);
    const std::uint32_t fb = builder.add(b);
    const Time c = static_cast<Time>(rng.next_below(period));
    const std::uint32_t cw = TdGraph::kConstFlag | c;

    // ttf o ttf, const o ttf, ttf o const.
    const Ttf tt_link = link_edge_ttfs(builder, fa, fb);
    const Ttf ct_link = link_edge_ttfs(builder, cw, fb);
    const Ttf tc_link = link_edge_ttfs(builder, fa, cw);
    EXPECT_TRUE(tt_link.is_fifo());
    EXPECT_TRUE(ct_link.is_fifo());
    EXPECT_TRUE(tc_link.is_fifo());
    for (Time t = 0; t < period; ++t) {
      // Direct composition: traverse the first leg, then the second.
      const Time m = a.arrival(t);
      EXPECT_EQ(tt_link.arrival(t), b.arrival(m)) << "t=" << t;
      EXPECT_EQ(ct_link.arrival(t), b.arrival(t + c)) << "t=" << t;
      EXPECT_EQ(tc_link.arrival(t), m + c) << "t=" << t;
      // Period handling: one full period later, one period later out.
      EXPECT_EQ(tt_link.arrival(t + period), tt_link.arrival(t) + period);
    }
  }
}

TEST(ContractionTtf, MergeIsPointwiseMin) {
  const Time period = 500;
  Rng rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    TtfPoolBuilder builder(period);
    const Ttf a = random_ttf(rng, period, 5);
    const Ttf b = random_ttf(rng, period, 5);
    const std::uint32_t fa = builder.add(a);
    const std::uint32_t fb = builder.add(b);
    const Ttf m = merge_edge_ttfs(builder, fa, fb);
    EXPECT_TRUE(m.is_fifo());
    for (Time t = 0; t < period; ++t) {
      EXPECT_EQ(m.eval(t), std::min(a.eval(t), b.eval(t))) << "t=" << t;
    }
  }
}

TEST(ContractionTtf, WordCostBoundsAreTight) {
  const Time period = 400;
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    TtfPoolBuilder builder(period);
    const Ttf f = random_ttf(rng, period, 5);
    const std::uint32_t fw = builder.add(f);
    const auto [mn, mx] = word_cost_bounds(builder, fw, period);
    Time seen_min = kInfTime, seen_max = 0;
    for (Time t = 0; t < period; ++t) {
      seen_min = std::min(seen_min, f.eval(t));
      seen_max = std::max(seen_max, f.eval(t));
    }
    EXPECT_EQ(mn, seen_min);
    EXPECT_EQ(mx, seen_max);
    const auto [cmn, cmx] =
        word_cost_bounds(builder, TdGraph::kConstFlag | 123u, period);
    EXPECT_EQ(cmn, 123u);
    EXPECT_EQ(cmx, 123u);
  }
}

/// word_cost_bounds in its modulo form — the next point as
/// pts[(i + 1) % n], its gap through delta() — the reference the
/// division-free form must match bit for bit.
std::pair<Time, Time> modulo_cost_bounds(const TtfPoolBuilder& pool,
                                         std::uint32_t w, Time period) {
  if (TdGraph::word_is_const(w)) {
    const Time c = TdGraph::word_weight(w);
    return {c, c};
  }
  const auto pts = pool.points(TdGraph::word_ttf(w));
  if (pts.empty()) return {kInfTime, kInfTime};
  Time mn = kInfTime, mx = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    mn = std::min(mn, pts[i].dur);
    const TtfPoint& nxt = pts[(i + 1) % pts.size()];
    const Time gap =
        pts.size() == 1 ? period : delta(pts[i].dep, nxt.dep, period);
    mx = std::max(mx, gap - 1 + nxt.dur);
  }
  return {mn, mx};
}

TEST(ContractionTtf, WordCostBoundsMatchTheModuloForm) {
  Rng rng(4242);
  for (const Time period : {Time{400}, Time{kDayseconds}}) {
    TtfPoolBuilder builder(period);
    std::vector<std::uint32_t> words;
    words.push_back(builder.add(Ttf{}));  // empty
    for (int iter = 0; iter < 300; ++iter) {
      std::vector<TtfPoint> pts;
      const std::size_t n = iter % 3 == 0 ? 1 : 1 + rng.next_below(40);
      for (std::size_t i = 0; i < n; ++i) {
        // Every third function crowds the period's ends, so its last gap
        // wraps past the period and rides overnight.
        const Time dep = static_cast<Time>(
            iter % 3 == 2 ? (rng.next_below(2) ? period - 1 - rng.next_below(8)
                                               : rng.next_below(8))
                          : rng.next_below(period));
        pts.push_back({dep, static_cast<Time>(1 + rng.next_below(2 * period))});
      }
      words.push_back(builder.add(Ttf::build(std::move(pts), period)));
    }
    std::size_t one_point = 0;
    for (const std::uint32_t w : words) {
      if (builder.points(w).size() == 1) ++one_point;
      EXPECT_EQ(word_cost_bounds(builder, w, period),
                modulo_cost_bounds(builder, w, period))
          << "function " << w << " of period " << period;
    }
    EXPECT_GE(one_point, 100u);
    for (const std::uint32_t c : {0u, 1u, 123u, 86399u}) {
      const std::uint32_t w = TdGraph::kConstFlag | c;
      EXPECT_EQ(word_cost_bounds(builder, w, period),
                modulo_cost_bounds(builder, w, period));
    }
  }
}

// ----------------------------------------------------------- differential ---

void expect_overlay_identity(const Timetable& tt, const OverlayContractionOptions& opt,
                             std::uint64_t seed) {
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, opt);
  EXPECT_EQ(ov.num_nodes(), g.num_nodes());
  EXPECT_EQ(ov.num_core_nodes() + ov.num_contracted(), g.num_nodes());
  // Every station stays core; every core edge stays inside the core.
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    EXPECT_TRUE(ov.is_core(ov.station_node(s)));
  }
  for (NodeId v = 0; v < ov.num_nodes(); ++v) {
    if (!ov.is_core(v)) continue;
    for (std::uint32_t e = ov.edge_begin(v); e < ov.edge_end(v); ++e) {
      EXPECT_TRUE(ov.is_core(ov.edge_head(e))) << "core edge leaves the core";
    }
  }

  test::expect_time_identity(tt, g, ov, seed, 3);
  for (const RelaxMode mode : {RelaxMode::kInterleaved, RelaxMode::kBatch}) {
    test::expect_profile_identity(tt, g, ov, mode, seed + 1, 2);
  }
}

TEST(ContractionOverlay, TinyLineIdentity) {
  expect_overlay_identity(test::tiny_line(), {}, 1001);
}

TEST(ContractionOverlay, SmallCityIdentity) {
  expect_overlay_identity(test::small_city(31), {}, 2002);
}

TEST(ContractionOverlay, SmallRailwayIdentity) {
  OverlayContractionOptions opt;
  opt.threads = 2;
  expect_overlay_identity(test::small_railway(32), opt, 3003);
}

TEST(ContractionOverlay, RandomNetworksIdentity) {
  Rng rng(555);
  for (int iter = 0; iter < 4; ++iter) {
    const Timetable tt = test::random_timetable(rng, 12, 8, 4);
    expect_overlay_identity(tt, {}, 4000 + iter);
  }
}

TEST(ContractionOverlay, TightCapsStillExact) {
  // Aggressive caps freeze most route nodes into the core; results must
  // not change (exactness is independent of the caps).
  OverlayContractionOptions opt;
  opt.max_new_edges = 3;
  opt.max_hops = 3;
  opt.witness_settles = 4;
  expect_overlay_identity(test::small_city(33), opt, 5005);

  // And witnessing fully off: every candidate kept, still exact.
  OverlayContractionOptions no_witness;
  no_witness.witness_settles = 0;
  expect_overlay_identity(test::tiny_line(), no_witness, 6006);
}

TEST(ContractionOverlay, DeterministicAcrossThreadCounts) {
  // The whole saved file — structure, shortcut records, down-sweep arrays,
  // pool and stats — must not depend on the thread count (nor, through the
  // stats, on the clock). Covered: 1, 2 and 4 threads, the default (the
  // machine's cores), and 33 — more threads than batch_size, so some
  // workers claim no node in a round.
  const auto saved_bytes = [](const Timetable& tt, const OverlayGraph& ov) {
    const std::string path =
        "contraction_det_" + std::to_string(::getpid()) + ".pcsn";
    save_snapshot(tt, &ov, path);
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
  };
  for (const gen::Preset p : gen::kAllPresets) {
    const Timetable tt = gen::make_preset(p, 0.3);
    const TdGraph g = TdGraph::build(tt);
    for (const std::uint32_t settles : {48u, 0u}) {
      OverlayContractionOptions serial;
      serial.threads = 1;
      serial.witness_settles = settles;
      const std::string reference =
          saved_bytes(tt, contract_graph(tt, g, serial));
      std::vector<OverlayContractionOptions> variants(4);  // default threads
      variants[0].threads = 2;
      variants[1].threads = 4;
      variants[2].threads = 33;
      for (OverlayContractionOptions& o : variants) {
        o.witness_settles = settles;
        const std::string bytes = saved_bytes(tt, contract_graph(tt, g, o));
        EXPECT_TRUE(bytes == reference)
            << gen::preset_name(p) << ", witness_settles " << settles
            << ": " << o.threads << " threads save different bytes than 1";
      }
    }
  }
}

// ------------------------------------------------------------ down-sweep ---

// A second down-sweep before the next run changes nothing: not the labels,
// not the parents, not the relax accounting.
TEST(ContractionOverlay, SettleContractedIsIdempotent) {
  const Timetable tt = test::small_city(37);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  TimeQuery over(tt, g, ov);
  Rng rng(89);
  for (int i = 0; i < 4; ++i) {
    const StationId s =
        static_cast<StationId>(rng.next_below(tt.num_stations()));
    over.run(s, static_cast<Time>(rng.next_below(tt.period())));
    over.settle_contracted();
    const QueryStats first = over.stats();
    std::vector<Time> arrivals(ov.num_nodes());
    std::vector<NodeId> parents(ov.num_nodes());
    for (NodeId v = 0; v < ov.num_nodes(); ++v) {
      arrivals[v] = over.arrival_at_node(v);
      parents[v] = over.parent(v);
    }
    over.settle_contracted();
    EXPECT_EQ(over.stats().settled, first.settled);
    EXPECT_EQ(over.stats().pushed, first.pushed);
    EXPECT_EQ(over.stats().relaxed, first.relaxed);
    for (NodeId v = 0; v < ov.num_nodes(); ++v) {
      ASSERT_EQ(over.arrival_at_node(v), arrivals[v]) << "node " << v;
      ASSERT_EQ(over.parent(v), parents[v]) << "node " << v;
    }
  }
}

// ------------------------------------------------------------- journeys ---

TEST(ContractionOverlay, JourneyExpansionMatchesFlat) {
  const Timetable tt = test::small_city(36);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  TimeQuery flat(tt, g);
  TimeQuery over(tt, g, ov);
  Journey fj, oj;
  Rng rng(77);
  int reachable = 0;
  for (int i = 0; i < 24; ++i) {
    const StationId s =
        static_cast<StationId>(rng.next_below(tt.num_stations()));
    const StationId t =
        static_cast<StationId>(rng.next_below(tt.num_stations()));
    const Time dep = static_cast<Time>(rng.next_below(tt.period()));
    flat.run(s, dep, t);
    const bool flat_ok = flat.extract_journey_into(s, dep, t, fj);
    over.run(s, dep, t);
    const bool ok = over.extract_journey_into(s, dep, t, oj);
    ASSERT_EQ(ok, flat_ok) << s << "->" << t << " at " << dep;
    if (!ok) continue;
    ++reachable;
    // Arrivals are byte-identical; the legs must form a consistent journey
    // achieving exactly that arrival (tie-breaking between equal-arrival
    // paths may differ between the flat parent tree and the expansion).
    EXPECT_EQ(oj.arrival, fj.arrival);
    ASSERT_FALSE(oj.legs.empty() && s != t);
    if (!oj.legs.empty()) {
      EXPECT_EQ(oj.legs.back().arr, oj.arrival);
      EXPECT_EQ(oj.legs.back().to, t);
      EXPECT_EQ(oj.legs.front().from, s);
      EXPECT_GE(oj.legs.front().dep, dep);
      for (std::size_t l = 0; l + 1 < oj.legs.size(); ++l) {
        EXPECT_EQ(oj.legs[l].to, oj.legs[l + 1].from);
        EXPECT_LE(oj.legs[l].arr, oj.legs[l + 1].dep);
      }
    }
  }
  EXPECT_GT(reachable, 0);
}

TEST(ContractionOverlay, GraphMismatchIsRejectedLoudly) {
  // A cached overlay bound to a different dataset must throw — in Release
  // builds too (a stale cache is a data error, not a programming error).
  const Timetable tiny = test::tiny_line();
  const TdGraph g_tiny = TdGraph::build(tiny);
  const OverlayGraph ov_tiny = contract_graph(tiny, g_tiny);
  const Timetable city = test::small_city(38);
  const TdGraph g_city = TdGraph::build(city);
  EXPECT_THROW((TimeQuery{city, g_city, ov_tiny}), std::runtime_error);
  EXPECT_THROW((ParallelSpcs{city, g_city, ov_tiny, {}}), std::runtime_error);

  // The same trips under another period give equal node, edge and TTF
  // counts; only the period tells the overlay apart, and every engine would
  // answer wrongly across the wrap.
  const Timetable two_day = test::tiny_line(2 * kDayseconds);
  const TdGraph g_two_day = TdGraph::build(two_day);
  ASSERT_EQ(g_two_day.num_nodes(), g_tiny.num_nodes());
  ASSERT_EQ(g_two_day.num_edges(), g_tiny.num_edges());
  ASSERT_EQ(g_two_day.ttfs().size(), g_tiny.ttfs().size());
  EXPECT_THROW((TimeQuery{two_day, g_two_day, ov_tiny}), std::runtime_error);
  EXPECT_THROW((ParallelSpcs{two_day, g_two_day, ov_tiny, {}}),
               std::runtime_error);
}

// -------------------------------------------------------- serialization ---

TEST(ContractionOverlay, SerializationRoundTripIsIdentical) {
  const Timetable tt = test::small_railway(37);
  const TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);

  const std::string path =
      "contraction_snap_" + std::to_string(::getpid()) + ".pcsn";
  save_snapshot(tt, &ov, path);
  const OverlayGraph back = MappedSnapshot(path).load_overlay();

  ASSERT_EQ(back.num_nodes(), ov.num_nodes());
  ASSERT_EQ(back.num_stations(), ov.num_stations());
  ASSERT_EQ(back.num_core_nodes(), ov.num_core_nodes());
  ASSERT_EQ(back.num_edges(), ov.num_edges());
  ASSERT_EQ(back.num_shortcuts(), ov.num_shortcuts());
  ASSERT_EQ(back.num_base_ttfs(), ov.num_base_ttfs());
  ASSERT_EQ(back.num_base_edges(), ov.num_base_edges());
  ASSERT_EQ(back.period(), ov.period());
  // The file holds no wall-clock reading: a loaded overlay reports none.
  EXPECT_EQ(back.build_stats().time_ms, 0.0);
  for (NodeId v = 0; v < ov.num_nodes(); ++v) {
    ASSERT_EQ(back.rank(v), ov.rank(v));
    ASSERT_EQ(back.edge_begin(v), ov.edge_begin(v));
  }
  for (std::uint32_t e = 0; e < ov.num_edges(); ++e) {
    ASSERT_EQ(back.edge_head(e), ov.edge_head(e));
    ASSERT_EQ(back.edge_word(e), ov.edge_word(e));
    ASSERT_EQ(back.edge_origin(e), ov.edge_origin(e));
  }
  ASSERT_EQ(back.ttfs().size(), ov.ttfs().size());
  ASSERT_EQ(back.ttfs().num_points(), ov.ttfs().num_points());
  for (std::uint32_t f = 0; f < static_cast<std::uint32_t>(ov.ttfs().size());
       ++f) {
    const auto a = ov.ttfs().points(f);
    const auto b = back.ttfs().points(f);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
  ASSERT_EQ(back.num_contracted(), ov.num_contracted());
  for (std::size_t i = 0; i < ov.num_contracted(); ++i) {
    ASSERT_EQ(back.down_node(i), ov.down_node(i));
    ASSERT_EQ(back.down_begin(i), ov.down_begin(i));
    ASSERT_EQ(back.down_end(i), ov.down_end(i));
  }

  // A corrupted cache must be rejected at load time (structural
  // cross-validation), never surface as an out-of-bounds relax. Flip one
  // byte in the CSR region and expect the loader to throw.
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    // Low byte of edge_begin_[2]: the edge_begin section (tag 23) holds
    // the offsets verbatim. A +-128 nudge breaks the CSR's monotonicity.
    std::uint32_t count;
    std::memcpy(&count, bytes.data() + 16, 4);
    std::size_t victim = bytes.size();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t tag;
      std::uint64_t offset;
      std::memcpy(&tag, bytes.data() + 24 + 24 * i, 4);
      std::memcpy(&offset, bytes.data() + 24 + 24 * i + 8, 8);
      if (tag == 23) victim = offset + 2 * 4;
    }
    ASSERT_LT(victim, bytes.size());
    bytes[victim] = static_cast<char>(bytes[victim] ^ 0x80);
    // A separate file: rewriting `path` in place would change the pages
    // `back` is adopted from.
    const std::string corrupt_path = path + ".corrupt";
    std::ofstream(corrupt_path, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_THROW((void)MappedSnapshot(corrupt_path).load_overlay(),
                 std::runtime_error);
    std::remove(corrupt_path.c_str());
  }
  std::remove(path.c_str());

  // The loaded overlay answers queries byte-identically.
  TimeQuery qa(tt, g, ov), qb(tt, g, back);
  Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    const StationId s =
        static_cast<StationId>(rng.next_below(tt.num_stations()));
    const Time dep = static_cast<Time>(rng.next_below(tt.period()));
    qa.run(s, dep);
    qb.run(s, dep);
    qa.settle_contracted();
    qb.settle_contracted();
    for (NodeId v = 0; v < ov.num_nodes(); ++v) {
      ASSERT_EQ(qa.arrival_at_node(v), qb.arrival_at_node(v));
    }
  }
}

}  // namespace
}  // namespace pconn
