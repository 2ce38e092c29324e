// Live-update subsystem correctness:
//  * incremental re-link differential — relink_overlay must reproduce a
//    from-scratch re-contraction byte-identically (structure, shortcut
//    records, every pooled TTF point) and answer time/profile queries
//    identically to the flat engines at EVERY node, across contraction
//    thread counts;
//  * the re-link path ladder: delays re-link, structure-changing events
//    (cancelling a route's only trip, an extra trip on a new sequence)
//    fall back to re-contraction, blast-radius/deadline overruns and
//    injected faults degrade;
//  * LiveOverlay state machine — epoch monotonicity, RCU pinning (readers
//    on a retired epoch keep byte-identical answers while the writer
//    publishes), malformed-event rejection leaving serving state
//    untouched, degradation + retry()/backoff recovery from every fault
//    site;
//  * LiveQuerySession — overlay-routed vs degraded flat serving agree,
//    and warm queries stay allocation-free across an epoch transition
//    (global operator new/delete counters, tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc_counter.hpp"
#include "algo/contraction.hpp"
#include "algo/time_query.hpp"
#include "live/delay_feed.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

using test::alloc_count;

// Live overlays always contract witness-free (re-link exactness).
OverlayContractionOptions live_opts(std::uint32_t threads = 1) {
  OverlayContractionOptions opt;
  opt.witness_settles = 0;
  opt.threads = threads;
  return opt;
}

// ---------------------------------------------- differential framework ---

/// Byte-level identity of two overlays: structure arrays, shortcut
/// provenance records, and every pooled TTF point.
void expect_overlays_byte_identical(const OverlayGraph& a,
                                    const OverlayGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_stations(), b.num_stations());
  ASSERT_EQ(a.num_core_nodes(), b.num_core_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_shortcuts(), b.num_shortcuts());
  ASSERT_EQ(a.num_base_ttfs(), b.num_base_ttfs());
  ASSERT_EQ(a.num_base_edges(), b.num_base_edges());
  ASSERT_EQ(a.period(), b.period());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.rank(v), b.rank(v)) << "node " << v;
    ASSERT_EQ(a.edge_begin(v), b.edge_begin(v)) << "node " << v;
  }
  for (std::uint32_t e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge_head(e), b.edge_head(e)) << "edge " << e;
    ASSERT_EQ(a.edge_word(e), b.edge_word(e)) << "edge " << e;
    ASSERT_EQ(a.edge_origin(e), b.edge_origin(e)) << "edge " << e;
  }
  for (std::uint32_t r = 0; r < a.num_shortcuts(); ++r) {
    const auto& ra = a.shortcut(r);
    const auto& rb = b.shortcut(r);
    ASSERT_EQ(ra.word, rb.word) << "rec " << r;
    ASSERT_EQ(ra.mid, rb.mid) << "rec " << r;
    ASSERT_EQ(ra.a, rb.a) << "rec " << r;
    ASSERT_EQ(ra.b, rb.b) << "rec " << r;
  }
  ASSERT_EQ(a.num_contracted(), b.num_contracted());
  for (std::size_t i = 0; i < a.num_contracted(); ++i) {
    ASSERT_EQ(a.down_node(i), b.down_node(i)) << "sweep pos " << i;
    ASSERT_EQ(a.down_begin(i), b.down_begin(i)) << "sweep pos " << i;
    ASSERT_EQ(a.down_end(i), b.down_end(i)) << "sweep pos " << i;
  }
  ASSERT_EQ(a.ttfs().size(), b.ttfs().size());
  for (std::uint32_t f = 0; f < static_cast<std::uint32_t>(a.ttfs().size());
       ++f) {
    const auto pa = a.ttfs().points(f);
    const auto pb = b.ttfs().points(f);
    ASSERT_EQ(pa.size(), pb.size()) << "function " << f;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].dep, pb[i].dep) << "function " << f << " point " << i;
      ASSERT_EQ(pa[i].dur, pb[i].dur) << "function " << f << " point " << i;
    }
  }
}

/// The full differential: re-link after `ev`, require `want` as the
/// status; on kRelinked the result must be byte-identical to a fresh
/// re-contraction AND query-identical to the flat engines.
void expect_relink(const Timetable& tt_old, const DelayEvent& ev,
                   RelinkStatus want, std::uint32_t threads,
                   std::uint64_t seed) {
  const OverlayContractionOptions opt = live_opts(threads);
  const TdGraph g_old = TdGraph::build(tt_old);
  const OverlayGraph ov_old = contract_graph(tt_old, g_old, opt);

  const Timetable tt_new = apply_event(tt_old, ev);
  const TdGraph g_new = TdGraph::build(tt_new);

  RelinkResult r = relink_overlay(tt_new, g_new, g_old, ov_old);
  ASSERT_EQ(r.status, want);
  if (want != RelinkStatus::kRelinked) return;

  const OverlayGraph fresh = contract_graph(tt_new, g_new, opt);
  expect_overlays_byte_identical(r.overlay, fresh);
  // The re-link must actually have been incremental: the unchanged part
  // of the pool is copied, not recomputed.
  EXPECT_GT(r.stats.recomputed_functions, 0u);
  EXPECT_LT(r.stats.recomputed_functions, ov_old.ttfs().size());

  test::expect_time_identity(tt_new, g_new, r.overlay, seed, 3);
  test::expect_profile_identity(tt_new, g_new, r.overlay, RelaxMode::kBatch,
                                seed + 2, 2);
}

// ------------------------------------------------------------- re-link ---

TEST(Relink, DelaySingleRouteIsByteIdentical) {
  // Holding trip 0 of the A-B-C line at B keeps the route partition (the
  // 8:00 run stays ahead of the 9:00 run) — the cheapest possible event.
  const Timetable tt = test::tiny_line();
  expect_relink(tt, DelayEvent::delayed(0, 1, 300), RelinkStatus::kRelinked,
                1, 101);
}

TEST(Relink, DelayOnSharedCorridorIsByteIdentical) {
  // A railway network where routes share corridors: one delayed trip
  // dirties base TTFs referenced by shortcut chains across routes.
  const Timetable tt = test::small_railway(41);
  expect_relink(tt, DelayEvent::delayed(0, 0, 120), RelinkStatus::kRelinked,
                1, 202);
}

TEST(Relink, IdenticalAcrossContractionThreadCounts) {
  // The provenance DAG the re-linker walks is deterministic across the
  // builder's thread counts; re-link must be exact for both.
  const Timetable tt = test::small_city(42);
  expect_relink(tt, DelayEvent::delayed(1, 0, 180), RelinkStatus::kRelinked,
                1, 303);
  expect_relink(tt, DelayEvent::delayed(1, 0, 180), RelinkStatus::kRelinked,
                2, 404);
}

TEST(Relink, CancelingRoutesOnlyTripChangesStructure) {
  // tiny_line's direct A-C trips form one route; cancelling trips one by
  // one eventually leaves routes with fewer trips — same structure — but a
  // timetable whose LAST direct trip is cancelled loses the route and its
  // route nodes: topology changed, re-link must refuse.
  Timetable tt = test::tiny_line();
  // Cancel three of the four direct A-C trips (ids 4..7): structure keeps
  // (route survives), re-link stays possible.
  for (int i = 0; i < 3; ++i) {
    const TdGraph g_old = TdGraph::build(tt);
    const OverlayGraph ov_old = contract_graph(tt, g_old, live_opts());
    const Timetable tt_new = apply_event(tt, DelayEvent::cancelled(4));
    const TdGraph g_new = TdGraph::build(tt_new);
    RelinkResult r = relink_overlay(tt_new, g_new, g_old, ov_old);
    if (r.status == RelinkStatus::kRelinked) {
      expect_overlays_byte_identical(
          r.overlay, contract_graph(tt_new, g_new, live_opts()));
    } else {
      EXPECT_EQ(r.status, RelinkStatus::kStructureChanged);
    }
    tt = tt_new;
  }
  // The last one: the route disappears, node count shrinks.
  const TdGraph g_old = TdGraph::build(tt);
  const OverlayGraph ov_old = contract_graph(tt, g_old, live_opts());
  const Timetable tt_new = apply_event(tt, DelayEvent::cancelled(4));
  const TdGraph g_new = TdGraph::build(tt_new);
  ASSERT_LT(g_new.num_nodes(), g_old.num_nodes());
  EXPECT_EQ(relink_overlay(tt_new, g_new, g_old, ov_old).status,
            RelinkStatus::kStructureChanged);
}

TEST(Relink, ExtraTripOnNewSequenceChangesStructure) {
  const Timetable tt = test::tiny_line();
  const TdGraph g_old = TdGraph::build(tt);
  const OverlayGraph ov_old = contract_graph(tt, g_old, live_opts());
  // C -> A is a stop sequence no existing route runs: a new route appears.
  using St = TimetableBuilder::StopTime;
  const Timetable tt_new = apply_event(
      tt, DelayEvent::extra_trip(
              {St{2, 10 * 3600, 10 * 3600}, St{0, 10 * 3600 + 900, 0}}));
  const TdGraph g_new = TdGraph::build(tt_new);
  EXPECT_EQ(relink_overlay(tt_new, g_new, g_old, ov_old).status,
            RelinkStatus::kStructureChanged);
}

TEST(Relink, WitnessPrunedOverlayRefuses) {
  // Witness pruning bakes travel-time bounds into which shortcuts exist;
  // a re-link on such an overlay is unsound and must be refused.
  const Timetable tt = test::small_city(43);
  const TdGraph g_old = TdGraph::build(tt);
  OverlayContractionOptions witnessed;  // default: witnessing on
  const OverlayGraph ov_old = contract_graph(tt, g_old, witnessed);
  if (ov_old.build_stats().witness_searches == 0) {
    GTEST_SKIP() << "fixture too small to trigger witness searches";
  }
  const Timetable tt_new =
      apply_event(tt, DelayEvent::delayed(0, 0, 60));
  const TdGraph g_new = TdGraph::build(tt_new);
  EXPECT_EQ(relink_overlay(tt_new, g_new, g_old, ov_old).status,
            RelinkStatus::kStructureChanged);
}

TEST(Relink, BlastRadiusCapTrips) {
  const Timetable tt = test::tiny_line();
  const TdGraph g_old = TdGraph::build(tt);
  const OverlayGraph ov_old = contract_graph(tt, g_old, live_opts());
  const Timetable tt_new = apply_event(tt, DelayEvent::delayed(0, 1, 300));
  const TdGraph g_new = TdGraph::build(tt_new);
  RelinkOptions opt;
  opt.blast_radius_cap = 0;
  EXPECT_EQ(relink_overlay(tt_new, g_new, g_old, ov_old, opt).status,
            RelinkStatus::kBlastRadiusExceeded);
}

TEST(Relink, InjectedDeadlineTrips) {
  const Timetable tt = test::tiny_line();
  const TdGraph g_old = TdGraph::build(tt);
  const OverlayGraph ov_old = contract_graph(tt, g_old, live_opts());
  const Timetable tt_new = apply_event(tt, DelayEvent::delayed(0, 1, 300));
  const TdGraph g_new = TdGraph::build(tt_new);
  FaultInjector faults;
  faults.arm(FaultInjector::Site::kDeadline);
  RelinkOptions opt;
  opt.faults = &faults;
  EXPECT_EQ(relink_overlay(tt_new, g_new, g_old, ov_old, opt).status,
            RelinkStatus::kDeadlineExceeded);
  EXPECT_EQ(faults.fired(), 1u);
}

// -------------------------------------------------------- delay events ---

TEST(DelayFeed, MalformedEventsThrowDescriptively) {
  const Timetable tt = test::tiny_line();
  EXPECT_THROW((void)apply_event(tt, DelayEvent::delayed(999, 0, 60)),
               std::invalid_argument);  // unknown trip
  EXPECT_THROW((void)apply_event(tt, DelayEvent::delayed(0, 99, 60)),
               std::invalid_argument);  // stop beyond the route
  EXPECT_THROW((void)apply_event(tt, DelayEvent::delayed(0, 0, 0)),
               std::invalid_argument);  // zero delay
  EXPECT_THROW(
      (void)apply_event(tt, DelayEvent::delayed(0, 0, tt.period() + 1)),
      std::invalid_argument);  // period-exceeding delay
  EXPECT_THROW((void)apply_event(tt, DelayEvent::cancelled(999)),
               std::invalid_argument);  // unknown trip
  using St = TimetableBuilder::StopTime;
  EXPECT_THROW(
      (void)apply_event(tt, DelayEvent::extra_trip({St{0, 100, 100}})),
      std::invalid_argument);  // single-stop relief run
  EXPECT_THROW((void)apply_event(
                   tt, DelayEvent::extra_trip(
                           {St{0, 200, 100}, St{1, 50, 50}})),
               std::invalid_argument);  // time goes backwards
}

TEST(DelayFeed, DelayShiftsOnlyFromTheHeldStop) {
  const Timetable tt = test::tiny_line();
  const Timetable out = apply_event(tt, DelayEvent::delayed(0, 1, 300));
  const Trip& before = tt.trip(0);
  const Trip& after = out.trip(0);
  ASSERT_EQ(before.arrivals.size(), after.arrivals.size());
  EXPECT_EQ(after.departures[0], before.departures[0]);
  EXPECT_EQ(after.arrivals[1], before.arrivals[1]);      // arrival unchanged
  EXPECT_EQ(after.departures[1], before.departures[1] + 300);  // held
  EXPECT_EQ(after.arrivals[2], before.arrivals[2] + 300);      // shifted
}

// -------------------------------------------------------- live overlay ---

TEST(LiveOverlay, DelayEventRelinksAndPublishes) {
  LiveOverlay live(test::tiny_line());
  ASSERT_FALSE(live.degraded());
  EXPECT_EQ(live.epoch(), 0u);

  const ApplyResult r = live.apply(DelayEvent::delayed(0, 1, 300));
  EXPECT_EQ(r.status, ApplyStatus::kRelinked);
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(live.stats().relinks, 1u);

  // The published epoch answers like a from-scratch world.
  auto snap = live.snapshot();
  ASSERT_NE(snap->overlay, nullptr);
  const Timetable fresh_tt =
      apply_event(test::tiny_line(), DelayEvent::delayed(0, 1, 300));
  const TdGraph fresh_g = TdGraph::build(fresh_tt);
  test::expect_time_identity(*snap->tt, *snap->graph, *snap->overlay, 17, 3);
  TimeQuery a(fresh_tt, fresh_g), b(*snap->tt, *snap->graph);
  a.run(0, 8 * 3600);
  b.run(0, 8 * 3600);
  for (StationId s = 0; s < fresh_tt.num_stations(); ++s) {
    EXPECT_EQ(a.arrival_at(s), b.arrival_at(s));
  }
}

TEST(LiveOverlay, MalformedEventIsRejectedWithoutStateChange) {
  LiveOverlay live(test::tiny_line());
  const auto before = live.snapshot();
  const ApplyResult r = live.apply(DelayEvent::delayed(999, 0, 60));
  EXPECT_EQ(r.status, ApplyStatus::kRejected);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(live.snapshot(), before);  // the very same snapshot object
  EXPECT_EQ(live.stats().events_rejected, 1u);
  EXPECT_EQ(live.stats().events_applied, 0u);
}

TEST(LiveOverlay, ReaderPinsRetiredEpochWhileWriterPublishes) {
  LiveOverlay live(test::tiny_line());
  LiveQuerySession reader(live);
  reader.set_auto_refresh(false);

  const Time arr_before = reader.earliest_arrival(0, 8 * 3600, 2);
  const std::uint64_t pinned_epoch = reader.epoch();

  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 1, 600)).status,
            ApplyStatus::kRelinked);
  // The reader still answers from the retired epoch, byte-identically.
  EXPECT_EQ(reader.epoch(), pinned_epoch);
  EXPECT_EQ(reader.earliest_arrival(0, 8 * 3600, 2), arr_before);
  EXPECT_EQ(live.retired_pinned(), 1u);

  // Releasing the pin moves the reader to the new epoch.
  reader.set_auto_refresh(true);
  const Time arr_after = reader.earliest_arrival(0, 8 * 3600, 2);
  EXPECT_EQ(reader.epoch(), pinned_epoch + 1);
  // The delayed 8:00 run arrives later at C on line 1; the direct line
  // keeps an 8:30 departure, so the answer can only get worse or stay.
  EXPECT_GE(arr_after, arr_before);
  EXPECT_EQ(live.retired_pinned(), 0u);
}

TEST(LiveOverlay, InjectedRelinkFaultDegradesThenRecovers) {
  FaultInjector faults;
  LiveOverlayOptions opt;
  opt.faults = &faults;
  opt.relink.faults = &faults;
  LiveOverlay live(test::tiny_line(), opt);
  ASSERT_FALSE(live.degraded());

  faults.arm(FaultInjector::Site::kRelinkShortcut);
  const ApplyResult r = live.apply(DelayEvent::delayed(0, 1, 300));
  EXPECT_EQ(r.status, ApplyStatus::kDegraded);
  EXPECT_EQ(faults.fired(), 1u);
  EXPECT_TRUE(live.degraded());
  EXPECT_EQ(live.failed_attempts(), 1u);

  // Degraded serving is exact: flat engines on the NEW timetable.
  auto snap = live.snapshot();
  EXPECT_EQ(snap->overlay, nullptr);
  EXPECT_EQ(snap->bypassed_stations.size(), snap->tt->num_stations());
  LiveQuerySession reader(live);
  EXPECT_TRUE(reader.serving_degraded());
  const Timetable fresh_tt =
      apply_event(test::tiny_line(), DelayEvent::delayed(0, 1, 300));
  const TdGraph fresh_g = TdGraph::build(fresh_tt);
  TimeQuery oracle(fresh_tt, fresh_g);
  oracle.run(0, 8 * 3600);
  EXPECT_EQ(reader.earliest_arrival(0, 8 * 3600, 2), oracle.arrival_at(2));

  // The environment is healthy again: retry() restores the overlay.
  const ApplyResult rec = live.retry();
  EXPECT_EQ(rec.status, ApplyStatus::kRecontracted);
  EXPECT_FALSE(live.degraded());
  EXPECT_EQ(live.failed_attempts(), 0u);
  EXPECT_EQ(live.stats().recoveries, 1u);
  // The reader follows into the recovered epoch and agrees with the
  // degraded answer (overlay vs flat identity).
  EXPECT_EQ(reader.earliest_arrival(0, 8 * 3600, 2), oracle.arrival_at(2));
  EXPECT_FALSE(reader.serving_degraded());
}

TEST(LiveOverlay, ContractionWorkerFaultAndBadAllocDegrade) {
  // 2 threads: the fault unwinds out of a pool worker. The default (the
  // machine's cores) is what production contracts with.
  const unsigned thread_counts[] = {2, OverlayContractionOptions{}.threads};
  for (const unsigned threads : thread_counts) {
    for (const auto kind :
         {FaultInjector::Kind::kError, FaultInjector::Kind::kBadAlloc}) {
      FaultInjector faults;
      LiveOverlayOptions opt;
      opt.faults = &faults;
      opt.relink.faults = &faults;
      opt.contraction.threads = threads;
      LiveOverlay live(test::tiny_line(), opt);

      // A structure-changing event forces the full re-contraction path;
      // the armed worker fault fails it, exactly once.
      using St = TimetableBuilder::StopTime;
      faults.arm(FaultInjector::Site::kContractionWorker, 0, kind);
      const ApplyResult r = live.apply(DelayEvent::extra_trip(
          {St{2, 10 * 3600, 10 * 3600}, St{0, 10 * 3600 + 900, 0}}));
      EXPECT_EQ(r.status, ApplyStatus::kDegraded) << threads << " threads";
      EXPECT_TRUE(live.degraded());
      EXPECT_EQ(faults.fired(), 1u);
      EXPECT_EQ(live.failed_attempts(), 1u);

      // First retry still fails (re-armed), second succeeds.
      faults.arm(FaultInjector::Site::kContractionWorker, 0, kind);
      EXPECT_EQ(live.retry().status, ApplyStatus::kDegraded);
      EXPECT_EQ(faults.fired(), 2u);
      EXPECT_EQ(live.failed_attempts(), 2u);
      EXPECT_EQ(live.retry().status, ApplyStatus::kRecontracted);
      EXPECT_FALSE(live.degraded());
    }
  }
}

TEST(LiveOverlay, InitialBuildFaultStartsDegradedThenRecovers) {
  FaultInjector faults;
  faults.arm(FaultInjector::Site::kContractionWorker);
  LiveOverlayOptions opt;
  opt.faults = &faults;
  LiveOverlay live(test::tiny_line(), opt);
  EXPECT_TRUE(live.degraded());
  EXPECT_EQ(live.epoch(), 0u);
  // Degraded epoch 0 still serves.
  LiveQuerySession reader(live);
  EXPECT_NE(reader.earliest_arrival(0, 8 * 3600, 2), kInfTime);
  EXPECT_EQ(live.retry().status, ApplyStatus::kRecontracted);
  EXPECT_FALSE(live.degraded());
}

TEST(LiveOverlay, RetryOnHealthyFeedIsANoop) {
  LiveOverlay live(test::tiny_line());
  EXPECT_EQ(live.retry().status, ApplyStatus::kNoop);
  EXPECT_EQ(live.stats().retries, 0u);
}

namespace {

/// Keeps a feed failing across `attempts` retries (re-arming the
/// contraction fault each time) and returns the backoff each retry chose.
std::vector<double> failing_backoff_sequence(LiveOverlayOptions opt,
                                             int attempts) {
  FaultInjector faults;
  faults.arm(FaultInjector::Site::kContractionWorker);  // initial build fails
  opt.faults = &faults;
  LiveOverlay live(test::tiny_line(), opt);
  EXPECT_TRUE(live.degraded());
  std::vector<double> seq;
  for (int k = 0; k < attempts; ++k) {
    faults.arm(FaultInjector::Site::kContractionWorker);
    EXPECT_EQ(live.retry().status, ApplyStatus::kDegraded);
    seq.push_back(live.last_backoff_ms());
  }
  return seq;
}

}  // namespace

TEST(LiveOverlay, RetryBackoffUsesDecorrelatedJitter) {
  LiveOverlayOptions opt;
  opt.backoff_ms = 0.001;  // microsecond-scale sleeps: observable, not slow
  opt.max_backoff_exp = 6;
  opt.backoff_seed = 11;
  const double base = opt.backoff_ms;
  const double cap = base * 64;

  std::vector<double> a = failing_backoff_sequence(opt, 6);
  std::vector<double> b = failing_backoff_sequence(opt, 6);
  opt.backoff_seed = 12;
  std::vector<double> c = failing_backoff_sequence(opt, 6);

  // Deterministic per seed, decorrelated across seeds (two feeds that
  // degraded on the same event must not retry in lockstep).
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);

  // Decorrelated-jitter envelope: sleep_k in [base, min(cap, 3*sleep_{k-1})]
  // with the first attempt pinned to the base.
  EXPECT_DOUBLE_EQ(a.front(), base);
  double prev = 0.0;
  for (double ms : a) {
    EXPECT_GE(ms, base);
    EXPECT_LE(ms, cap + 1e-12);
    EXPECT_LE(ms, std::max(base, 3.0 * prev) + 1e-12);
    prev = ms;
  }
}

TEST(LiveOverlay, RetryBackoffPureExponentialWhenJitterDisabled) {
  LiveOverlayOptions opt;
  opt.backoff_ms = 0.001;
  opt.max_backoff_exp = 3;
  opt.backoff_jitter = false;
  std::vector<double> seq = failing_backoff_sequence(opt, 6);
  // base * 2^min(k, max_exp): 1, 2, 4, 8, 8, 8 (in base units).
  const std::vector<double> expect = {0.001, 0.002, 0.004,
                                      0.008, 0.008, 0.008};
  ASSERT_EQ(seq.size(), expect.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq[i], expect[i]) << "attempt " << i;
  }
}

TEST(LiveOverlay, EventStreamKeepsServingExactly) {
  // A stream mixing every event kind; after each publication the live
  // session must agree with a from-scratch oracle on the same timetable.
  LiveOverlay live(test::small_city(44));
  LiveQuerySession reader(live);
  Timetable shadow = test::small_city(44);
  Rng rng(4242);

  const std::vector<DelayEvent> stream = {
      DelayEvent::delayed(0, 0, 120),
      DelayEvent::delayed(2, 1, 600),
      DelayEvent::cancelled(1),
      DelayEvent::delayed(3, 0, 60),
  };
  for (const DelayEvent& ev : stream) {
    shadow = apply_event(shadow, ev);
    const ApplyResult r = live.apply(ev);
    ASSERT_TRUE(r.status == ApplyStatus::kRelinked ||
                r.status == ApplyStatus::kRecontracted)
        << "status " << static_cast<int>(r.status) << ": " << r.error;

    const TdGraph oracle_g = TdGraph::build(shadow);
    TimeQuery oracle(shadow, oracle_g);
    for (int q = 0; q < 3; ++q) {
      const StationId s =
          static_cast<StationId>(rng.next_below(shadow.num_stations()));
      const StationId t =
          static_cast<StationId>(rng.next_below(shadow.num_stations()));
      const Time dep = static_cast<Time>(rng.next_below(shadow.period()));
      oracle.run(s, dep);
      ASSERT_EQ(reader.earliest_arrival(s, dep, t), oracle.arrival_at(t))
          << "s " << s << " t " << t << " dep " << dep;
    }
  }
  EXPECT_EQ(live.epoch(), stream.size());
}

// ------------------------------------------------ shared base-TTF pool ---

/// True when the epoch's graph reads its overlay's base prefix in place:
/// the same three pool arrays, starting at the same addresses.
bool graph_pool_aliases_overlay(const LiveSnapshot& snap) {
  if (snap.overlay == nullptr) return false;
  if (snap.graph->ttfs().size() != snap.overlay->num_base_ttfs()) return false;
  const auto g = snap.graph->ttfs().array_bytes();
  const auto o = snap.overlay->ttfs().array_bytes();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i].empty() || g[i].data() != o[i].data() ||
        g[i].size() > o[i].size()) {
      return false;
    }
  }
  return true;
}

/// The epoch's flat engines answer exactly like ones over a fresh build of
/// its timetable, whose pool the epoch's graph pool equals byte for byte.
void expect_flat_graph_matches_fresh_build(const LiveSnapshot& snap) {
  const TdGraph fresh = TdGraph::build(*snap.tt);
  const TdGraph& g = *snap.graph;
  ASSERT_EQ(g.num_nodes(), fresh.num_nodes());
  ASSERT_EQ(g.num_edges(), fresh.num_edges());
  for (TdGraph::EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(g.edge_head(e), fresh.edge_head(e)) << "edge " << e;
    ASSERT_EQ(g.edge_word(e), fresh.edge_word(e)) << "edge " << e;
  }
  const auto mine = g.ttfs().array_bytes();
  const auto want = fresh.ttfs().array_bytes();
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(mine[i], want[i])) << "pool array " << i;
  }
  TimeQuery a(*snap.tt, g), b(*snap.tt, fresh);
  Rng rng(snap.epoch * 31 + 7);
  for (int q = 0; q < 6; ++q) {
    const auto s =
        static_cast<StationId>(rng.next_below(snap.tt->num_stations()));
    const auto dep = static_cast<Time>(rng.next_below(snap.tt->period()));
    a.run(s, dep);
    b.run(s, dep);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(a.arrival_at_node(v), b.arrival_at_node(v))
          << "s " << s << " v " << v;
    }
  }
}

TEST(LiveOverlay, EveryEpochWithAnOverlayReadsItsBasePrefix) {
  FaultInjector faults;
  LiveOverlayOptions opt;
  opt.faults = &faults;
  opt.relink.faults = &faults;
  LiveOverlay live(test::tiny_line(), opt);
  const auto epoch0 = live.snapshot();
  EXPECT_TRUE(graph_pool_aliases_overlay(*epoch0));
  expect_flat_graph_matches_fresh_build(*epoch0);

  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 1, 300)).status,
            ApplyStatus::kRelinked);
  const auto relinked = live.snapshot();
  EXPECT_TRUE(graph_pool_aliases_overlay(*relinked));
  expect_flat_graph_matches_fresh_build(*relinked);

  using St = TimetableBuilder::StopTime;
  ASSERT_EQ(live.apply(DelayEvent::extra_trip({St{2, 10 * 3600, 10 * 3600},
                                               St{0, 10 * 3600 + 900, 0}}))
                .status,
            ApplyStatus::kRecontracted);
  const auto recontracted = live.snapshot();
  EXPECT_TRUE(graph_pool_aliases_overlay(*recontracted));
  expect_flat_graph_matches_fresh_build(*recontracted);

  // A degraded epoch has no overlay to share with: its graph owns a pool
  // of its own, apart from every overlay published before it.
  faults.arm(FaultInjector::Site::kRelinkShortcut);
  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 1, 120)).status,
            ApplyStatus::kDegraded);
  const auto degraded = live.snapshot();
  ASSERT_EQ(degraded->overlay, nullptr);
  const auto own = degraded->graph->ttfs().array_bytes();
  for (const auto& prev : {epoch0, relinked, recontracted}) {
    const auto theirs = prev->overlay->ttfs().array_bytes();
    for (std::size_t i = 0; i < own.size(); ++i) {
      EXPECT_NE(own[i].data(), theirs[i].data()) << "pool array " << i;
    }
  }
  expect_flat_graph_matches_fresh_build(*degraded);

  // Recovery shares the degraded graph's structure and moves its pool
  // onto the new overlay's prefix.
  ASSERT_EQ(live.retry().status, ApplyStatus::kRecontracted);
  const auto recovered = live.snapshot();
  EXPECT_TRUE(graph_pool_aliases_overlay(*recovered));
  EXPECT_EQ(recovered->graph->heads_data(), degraded->graph->heads_data());
  expect_flat_graph_matches_fresh_build(*recovered);
}

TEST(LiveOverlay, SharedPoolAnswersMatchAFreshBuildOnEveryPreset) {
  for (const gen::Preset p : gen::kAllPresets) {
    SCOPED_TRACE(gen::preset_name(p));
    LiveOverlay live(gen::make_preset(p, 0.05));
    const auto snap = live.snapshot();
    ASSERT_TRUE(graph_pool_aliases_overlay(*snap));
    expect_flat_graph_matches_fresh_build(*snap);
    // Adoption derives the same graph from the overlay alone.
    LiveOverlay adopted(*snap->tt, *snap->overlay);
    const auto a = adopted.snapshot();
    EXPECT_TRUE(graph_pool_aliases_overlay(*a));
    EXPECT_EQ(a->graph->ttfs().array_bytes()[0].data(),
              snap->overlay->ttfs().array_bytes()[0].data());
    expect_flat_graph_matches_fresh_build(*a);
  }
}

// -------------------------------------------- warm allocation behaviour ---

TEST(LiveSession, WarmQueriesStayAllocationFreeAcrossEpochs) {
  LiveOverlay live(test::small_city(45));
  QuerySessionOptions sopt;
  sopt.threads = 2;
  LiveQuerySession reader(live, sopt);

  const StationId target =
      static_cast<StationId>(live.snapshot()->tt->num_stations() - 1);
  std::uint64_t sink = 0;
  auto run_mix = [&] {
    for (StationId s = 0; s < 4; ++s) {
      sink += static_cast<std::uint64_t>(
          reader.earliest_arrival(s, 8 * 3600, target));
      sink += reader.one_to_all(s).stats.settled;
      sink += reader.station_to_station(s, target).profile.size();
      if (const Journey* j = reader.journey(s, 8 * 3600, target)) {
        sink += j->legs.size();
      }
    }
  };

  // Warm on epoch 0, then measure: zero allocations.
  run_mix();
  run_mix();
  std::uint64_t before = alloc_count();
  run_mix();
  EXPECT_EQ(alloc_count() - before, 0u) << "warm epoch-0 queries allocated";

  // Publish a new epoch; the next query rebinds + re-warms, after which
  // queries are allocation-free again at steady-state footprint.
  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 0, 120)).status,
            ApplyStatus::kRelinked);
  run_mix();  // rebind + first warm pass on the new epoch
  run_mix();  // capacity shake-out
  before = alloc_count();
  run_mix();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "warm queries allocated after the epoch transition";
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace pconn
