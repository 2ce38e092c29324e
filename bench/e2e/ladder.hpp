// The traced run's cost ladder: one seeded query set answered at each layer
// boundary in turn — overlay engine, QuerySession, LiveQuerySession,
// in-process QueryServer over one BlockingClient, one-shard fleet — with
// byte identity across the rungs checked before any rung is timed. A
// layer's cost is its rung minus the rung below. Rung timings are spans in
// the tracer; the counters that are not times come back here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serving.hpp"
#include "stats.hpp"
#include "supervisor/supervisor.hpp"
#include "trace.hpp"

namespace pconn::e2e {

struct LadderResult {
  bool identical = true;
  std::size_t snapshot_bytes = 0;
  std::size_t graph_bytes = 0;
  std::size_t overlay_bytes = 0;
  std::size_t shortcut_points = 0;
  // Engine-rung work counters (means per query).
  double ea_settled_mean = 0.0;
  double ea_relaxed_mean = 0.0;
  double ea_stale_pop_ratio = 0.0;  // stale pops / all pops
  double profile_settled_mean = 0.0;
  double profile_self_pruned_ratio = 0.0;  // self-pruned pops / settled
  double profile_stop_pruned_ratio = 0.0;  // stop-pruned pops / settled
  // Paper rung: flat one-to-all SPCS at 1, 2 and 4 threads.
  double table1_settled[3] = {0.0, 0.0, 0.0};
  std::size_t scratch_bytes_end = 0;  // session rung after the whole mix
  SmapsRollup shard_memory;           // the fleet rung's shard
  std::vector<KillRecord> kills;      // three SIGKILLs of that shard
  SupervisorStats fleet_stats;
};

/// Runs the ladder over `snapshot` with `eas` EA and `profiles` profile
/// queries from `qs`, then the paper rung and a three-kill recovery probe.
LadderResult run_ladder(const std::string& snapshot, QueryStream& qs, int eas,
                        int profiles, Tracer& tracer);

}  // namespace pconn::e2e
