// Span recorder of the traced run. Spans are recorded only in benchmark
// code, around its calls into the library's public functions; nothing
// inside the program is instrumented. Slots are preallocated, a begin()
// is one atomic increment, and the spans are written as JSON lines when
// the run ends. An untraced run uses a zero-capacity tracer, so every
// begin()/end() is a no-op.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pconn::e2e {

struct Span {
  std::uint64_t trace = 0;   // request / query this span belongs to
  std::uint32_t parent = 0;  // 0 = root
  const char* layer = "";    // module name: gen, timetable, graph, algo, ...
  const char* name = "";
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  double ms() const { return static_cast<double>(t1_ns - t0_ns) / 1e6; }
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : slots_(capacity) {}

  bool enabled() const { return !slots_.empty(); }

  /// Opens a span now; returns its id (1-based), 0 when disabled or full.
  std::uint32_t begin(const char* layer, const char* name,
                      std::uint32_t parent = 0, std::uint64_t trace = 0);
  /// Closes span `id` now (no-op for 0).
  void end(std::uint32_t id);
  /// Records an already-finished span.
  std::uint32_t add(const char* layer, const char* name, std::int64_t t0_ns,
                    std::int64_t t1_ns, std::uint32_t parent = 0,
                    std::uint64_t trace = 0);

  /// Spans recorded so far (closed or not).
  std::size_t size() const { return std::min(next_.load(), slots_.size()); }

  /// Durations (ms) of every closed span with this layer and name.
  std::vector<double> durations_ms(const char* layer, const char* name) const;
  /// Self time per layer (ms): each span's duration minus the time its
  /// direct children cover.
  std::map<std::string, double> self_ms_by_layer() const;

  /// One JSON object per line: {trace, span, parent, layer, name, t0_ns,
  /// t1_ns}. Returns false on an IO error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> slots_;
  std::atomic<std::size_t> next_{0};
};

/// RAII span over a scope.
class Scoped {
 public:
  Scoped(Tracer& t, const char* layer, const char* name,
         std::uint32_t parent = 0)
      : t_(t), id_(t.begin(layer, name, parent)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace pconn::e2e
