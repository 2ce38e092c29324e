// Differential test for the label-correcting profile baseline's two relax
// bodies (algo/relax_batch.hpp): the batch body must produce
// byte-identical results AND byte-identical work accounting (settled,
// pushed, decreased, relaxed, label points, ...) to the interleaved body,
// its oracle. LC is the only engine with two bodies; the overlay LC port's
// differential against flat LC lives in contraction_test.
#include <gtest/gtest.h>

#include <string>

#include "algo/contraction.hpp"
#include "algo/lc_profile.hpp"
#include "algo/overlay_query.hpp"
#include "algo/session.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

/// Same queue on both sides, so EVERY counter must agree — including the
/// queue-shape ones the cross-policy tests exempt.
void expect_stats_eq(const QueryStats& a, const QueryStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.settled, b.settled) << what;
  EXPECT_EQ(a.pushed, b.pushed) << what;
  EXPECT_EQ(a.decreased, b.decreased) << what;
  EXPECT_EQ(a.stale_popped, b.stale_popped) << what;
  EXPECT_EQ(a.relaxed, b.relaxed) << what;
  EXPECT_EQ(a.self_pruned, b.self_pruned) << what;
  EXPECT_EQ(a.relax_pruned, b.relax_pruned) << what;
  EXPECT_EQ(a.stop_pruned, b.stop_pruned) << what;
  EXPECT_EQ(a.table_pruned, b.table_pruned) << what;
  EXPECT_EQ(a.label_points, b.label_points) << what;
}

// ------------------------------------------------------------- session ---

// QuerySessionOptions::relax must reach both engines that have two relax
// bodies — results are mode-identical by design, so this checks the
// plumbing directly instead of the output.
TEST(BatchRelax, SessionAppliesRelaxOptionToEveryEngine) {
  Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  QuerySessionOptions opt;
  opt.relax = RelaxMode::kInterleaved;
  QuerySession session(tt, g, opt);
  EXPECT_EQ(session.lc_engine().relax_mode(), RelaxMode::kInterleaved);
  EXPECT_EQ(session.overlay_lc_engine(ov).relax_mode(),
            RelaxMode::kInterleaved);
}

// ----------------------------------------------------------------- LC ---

// LC runs the binary heap only (label-correcting keys are not monotone);
// its batch dimension is the label profile.
TEST(BatchRelax, LcBinaryHeap) {
  for (int net = 0; net < 2; ++net) {
    Timetable tt =
        net == 0 ? test::small_city(37) : test::small_railway(38);
    TdGraph g = TdGraph::build(tt);
    LcProfileQuery inter(tt, g), batch(tt, g);
    inter.set_relax_mode(RelaxMode::kInterleaved);
    batch.set_relax_mode(RelaxMode::kBatch);
    for (StationId s = 0; s < tt.num_stations(); s += 4) {
      inter.run(s);
      batch.run(s);
      const std::string what = "lc src " + std::to_string(s);
      expect_stats_eq(inter.stats(), batch.stats(), what);
      for (StationId v = 0; v < tt.num_stations(); ++v) {
        EXPECT_EQ(inter.profile(v), batch.profile(v)) << what << " @" << v;
      }
    }
  }
}

}  // namespace
}  // namespace pconn
