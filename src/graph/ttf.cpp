#include "graph/ttf.hpp"

#include <algorithm>
#include <cassert>

namespace pconn {

Ttf Ttf::build(std::vector<TtfPoint> points, Time period) {
  Ttf f;
  f.period_ = period;
  std::vector<std::uint8_t> keep;
  normalize(points, period, keep);
  f.points_ = std::move(points);
  return f;
}

void Ttf::normalize(std::vector<TtfPoint>& points, Time period,
                    std::vector<std::uint8_t>& keep) {
  if (points.empty()) return;
  for ([[maybe_unused]] const TtfPoint& p : points) assert(p.dep < period);

  std::sort(points.begin(), points.end(),
            [](const TtfPoint& a, const TtfPoint& b) {
              return a.dep != b.dep ? a.dep < b.dep : a.dur < b.dur;
            });
  // Unique departures: the fastest ride wins (sort order guarantees it
  // comes first).
  points.erase(std::unique(points.begin(), points.end(),
                           [](const TtfPoint& a, const TtfPoint& b) {
                             return a.dep == b.dep;
                           }),
               points.end());

  // Cyclic domination pruning: drop point i when waiting for the next kept
  // point j (possibly wrapping) arrives no later: Delta(dep_i, dep_j) +
  // dur_j <= dur_i. Backward circular sweeps until a fixpoint; each kept
  // point then transitively beats waiting for any later one, which makes
  // "take the next departure" the optimal policy and eval() O(log n).
  keep.assign(points.size(), 1);
  std::size_t kept = points.size();
  bool changed = true;
  while (changed && kept > 1) {
    changed = false;
    // next_kept[i]: first kept index cyclically after i.
    std::size_t next = std::size_t(-1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (keep[i]) {
        next = i;
        break;
      }
    }
    for (std::size_t step = points.size(); step-- > 0 && kept > 1;) {
      std::size_t i = step;
      if (!keep[i]) continue;
      // Find the kept successor of i (cyclically). `next` tracks the first
      // kept point after the current one in this backward sweep.
      if (next == i) {
        // recompute: first kept after i
        std::size_t j = (i + 1) % points.size();
        while (!keep[j]) j = (j + 1) % points.size();
        next = j;
      }
      std::size_t j = next;
      if (j != i) {
        Time wait = delta(points[i].dep, points[j].dep, period);
        if (wait + points[j].dur <= points[i].dur) {
          keep[i] = 0;
          --kept;
          changed = true;
        }
      }
      if (keep[i]) next = i;
    }
  }

  std::size_t out = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (keep[i]) points[out++] = points[i];
  }
  points.resize(out);
}

std::size_t Ttf::point_used(Time t) const {
  assert(!points_.empty());
  Time tau = t % period_;
  // First departure >= tau; wraps to the first point of the next period.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), tau,
      [](const TtfPoint& p, Time v) { return p.dep < v; });
  if (it == points_.end()) it = points_.begin();
  return static_cast<std::size_t>(it - points_.begin());
}

Time Ttf::eval(Time t) const {
  if (points_.empty()) return kInfTime;
  const TtfPoint& p = points_[point_used(t)];
  return delta(t, p.dep, period_) + p.dur;
}

Time Ttf::min_duration() const {
  Time best = kInfTime;
  for (const TtfPoint& p : points_) best = std::min(best, p.dur);
  return best;
}

bool Ttf::is_fifo() const {
  // FIFO (cyclic): for all t1, t2: f(t1) <= Delta(t1, t2) + f(t2).
  // It suffices to test t1 at each departure point and t2 at every other
  // departure point, since f is affine (slope -1 in wait) between points.
  for (const TtfPoint& a : points_) {
    for (const TtfPoint& b : points_) {
      Time lhs = eval(a.dep);
      Time rhs = delta(a.dep, b.dep, period_) + eval(b.dep);
      if (lhs > rhs) return false;
    }
  }
  return true;
}

}  // namespace pconn
