#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "loadgen.hpp"

namespace pconn::e2e {

std::uint32_t Tracer::begin(const char* layer, const char* name,
                            std::uint32_t parent, std::uint64_t trace) {
  if (slots_.empty()) return 0;
  return add(layer, name, now_ns(), -1, parent, trace);
}

void Tracer::end(std::uint32_t id) {
  if (id != 0) slots_[id - 1].t1_ns = now_ns();
}

std::uint32_t Tracer::add(const char* layer, const char* name,
                          std::int64_t t0_ns, std::int64_t t1_ns,
                          std::uint32_t parent, std::uint64_t trace) {
  if (slots_.empty()) return 0;
  const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= slots_.size()) return 0;
  slots_[idx] = Span{trace, parent, layer, name, t0_ns, t1_ns};
  return static_cast<std::uint32_t>(idx + 1);
}

std::vector<double> Tracer::durations_ms(const char* layer,
                                         const char* name) const {
  std::vector<double> out;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = slots_[i];
    if (s.t1_ns >= s.t0_ns && std::strcmp(s.layer, layer) == 0 &&
        std::strcmp(s.name, name) == 0) {
      out.push_back(s.ms());
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::size_t n = size();
  std::vector<double> covered(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = slots_[i];
    if (s.t1_ns >= s.t0_ns && s.parent != 0 && s.parent <= n) {
      covered[s.parent - 1] += s.ms();
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = slots_[i];
    if (s.t1_ns >= s.t0_ns) self[s.layer] += s.ms() - covered[i];
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  const std::size_t n = size();
  char line[256];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = slots_[i];
    if (s.t1_ns < s.t0_ns) continue;
    std::snprintf(line, sizeof(line),
                  "{\"trace\": %" PRIu64 ", \"span\": %zu, \"parent\": %u, "
                  "\"layer\": \"%s\", \"name\": \"%s\", \"t0_ns\": %" PRId64
                  ", \"t1_ns\": %" PRId64 "}\n",
                  s.trace, i + 1, s.parent, s.layer, s.name, s.t0_ns, s.t1_ns);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace pconn::e2e
