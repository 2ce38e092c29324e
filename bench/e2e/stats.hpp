// The benchmark's own arithmetic, kept free of sockets and clocks so
// `bench_e2e --selftest` can check it in isolation: quantile selection,
// the "at least 10 samples beyond" tail rule, sliced quantiles and rates,
// the seeded Poisson arrival schedule, and the smaps_rollup parser.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace pconn::e2e {

/// Nearest-rank quantile of an ascending sample: the value at 1-based rank
/// ceil(q * n). 0 on an empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const std::size_t rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n - 1e-9), 1.0, n));
  return sorted[rank - 1];
}

/// Samples strictly above the nearest-rank position of q.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return n - static_cast<std::size_t>(std::max(rank, 1.0));
}

struct Tail {
  double q = 0.0;      // the quantile reported
  double value = 0.0;  // its value
  std::size_t n = 0;   // sample count
};

/// The highest quantile of {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999} that
/// still has at least 10 samples beyond it — the tail a sample of this size
/// can support. Samples under 20 report their median.
inline Tail tail_quantile(const std::vector<double>& sorted) {
  Tail t;
  t.n = sorted.size();
  t.q = 0.5;
  for (const double q : {0.9, 0.99, 0.999, 0.9999, 0.99999}) {
    if (samples_beyond(sorted.size(), q) >= 10) t.q = q;
  }
  t.value = quantile_sorted(sorted, t.q);
  return t;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  Tail tail;
};

inline Summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Summary s;
  s.n = v.size();
  s.p50 = quantile_sorted(v, 0.5);
  s.p90 = quantile_sorted(v, 0.9);
  s.p99 = quantile_sorted(v, 0.99);
  s.tail = tail_quantile(v);
  return s;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

/// Quantile q of each `slice_ns`-long slice of a sample (each value tagged
/// with its scheduled time), then the median over the slices. A stall that
/// spoils one slice does not move it; a queue that grows through the window
/// moves every slice. Slices with fewer than 1/(1-q) samples are skipped
/// unless none has that many, in which case the whole sample counts.
inline double sliced_quantile(
    std::vector<std::pair<std::int64_t, double>> at_value,
    std::int64_t slice_ns, double q) {
  std::sort(at_value.begin(), at_value.end());
  const auto min_n = static_cast<std::size_t>(std::ceil(1.0 / (1.0 - q)));
  std::vector<double> per_slice, slice, all;
  const auto close = [&] {
    if (slice.size() >= min_n) {
      std::sort(slice.begin(), slice.end());
      per_slice.push_back(quantile_sorted(slice, q));
    }
    slice.clear();
  };
  std::int64_t slice_end = at_value.empty() ? 0 : at_value.front().first;
  for (const auto& [at, v] : at_value) {
    while (at >= slice_end) {
      close();
      slice_end += slice_ns;
    }
    slice.push_back(v);
    all.push_back(v);
  }
  close();
  if (per_slice.empty()) {
    std::sort(all.begin(), all.end());
    return quantile_sorted(all, q);
  }
  return median(per_slice);
}

/// Events per second in each whole `slice_ns` slice of [0, span_ns); the
/// median over such slices is a rate that a stall of the host, which
/// empties one slice, does not move. A span shorter than one slice is a
/// single slice.
inline std::vector<double> slice_rates(const std::vector<std::int64_t>& at_ns,
                                       std::int64_t span_ns,
                                       std::int64_t slice_ns) {
  slice_ns = std::min(slice_ns, span_ns);
  if (slice_ns <= 0) return {};
  const double per_event = 1e9 / static_cast<double>(slice_ns);
  std::vector<double> rates(static_cast<std::size_t>(span_ns / slice_ns), 0.0);
  for (const std::int64_t t : at_ns) {
    const std::int64_t k = t / slice_ns;
    if (t >= 0 && k < static_cast<std::int64_t>(rates.size())) {
      rates[static_cast<std::size_t>(k)] += per_event;
    }
  }
  return rates;
}

/// Open-loop arrival offsets (ns from the phase start) of a Poisson process
/// at `rate` per second over `seconds`: exponential gaps drawn from `rng`,
/// so one seed always yields the same schedule.
inline std::vector<std::int64_t> poisson_schedule(Rng& rng, double rate,
                                                  double seconds) {
  std::vector<std::int64_t> at;
  at.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.next_double()) / rate * 1e9;
    if (t >= end_ns) break;
    at.push_back(static_cast<std::int64_t>(t));
  }
  return at;
}

/// Generator lateness: how long after its scheduled time each request was
/// actually written (never negative), as a p99 in ms.
inline double lateness_p99_ms(const std::vector<std::int64_t>& scheduled_ns,
                              const std::vector<std::int64_t>& sent_ns) {
  std::vector<double> late;
  late.reserve(scheduled_ns.size());
  for (std::size_t i = 0; i < scheduled_ns.size(); ++i) {
    if (sent_ns[i] < 0) continue;  // never sent
    late.push_back(
        static_cast<double>(std::max<std::int64_t>(0, sent_ns[i] -
                                                          scheduled_ns[i])) /
        1e6);
  }
  std::sort(late.begin(), late.end());
  return quantile_sorted(late, 0.99);
}

struct SmapsRollup {
  std::uint64_t pss_kb = 0;
  std::uint64_t private_kb = 0;  // Private_Clean + Private_Dirty
};

/// Parses the text of /proc/<pid>/smaps_rollup; nullopt without a Pss line.
inline std::optional<SmapsRollup> parse_smaps_rollup(std::string_view text) {
  SmapsRollup r;
  bool have_pss = false;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{}
                                         : text.substr(eol + 1);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, colon);
    const std::uint64_t kb = std::strtoull(
        std::string(line.substr(colon + 1)).c_str(), nullptr, 10);
    if (key == "Pss") {
      r.pss_kb = kb;
      have_pss = true;
    } else if (key == "Private_Clean" || key == "Private_Dirty") {
      r.private_kb += kb;
    }
  }
  if (!have_pss) return std::nullopt;
  return r;
}

}  // namespace pconn::e2e
