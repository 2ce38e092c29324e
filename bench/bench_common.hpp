// Shared infrastructure for the table-reproduction benches.
//
// Scale and query counts are tunable via environment variables so the suite
// stays usable both on CI boxes and for longer calibration runs:
//   PCONN_SCALE    multiplies every preset's station count (default 1.0 =
//                  the calibrated bench size, NOT the paper's full size);
//   PCONN_QUERIES  random queries per measurement (default 12; the paper
//                  averaged 1000 on a dedicated machine).
// Common CLI flags (parse_bench_args):
//   --smoke        CI preset: caps scale and query count so the bench
//                  finishes in seconds;
//   --json[=FILE]  machine-readable JSON results to stdout (or FILE).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "gen/generator.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace pconn::bench {

inline double env_double(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : def;
}

inline int env_int(const char* name, int def) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : def;
}

struct BenchOptions {
  bool json = false;
  std::string json_path;  // empty = stdout
  bool smoke = false;
};

inline BenchOptions& options() {
  static BenchOptions opt;
  return opt;
}

/// Parses the shared flags; unknown arguments abort with a usage message.
inline void parse_bench_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options().smoke = true;
    } else if (arg == "--json") {
      options().json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      options().json = true;
      options().json_path = arg.substr(7);
    } else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--json[=FILE]]\n";
      std::exit(2);
    }
  }
}

inline double scale() {
  double s = env_double("PCONN_SCALE", 1.0);
  return options().smoke ? std::min(s, 0.3) : s;
}
inline int num_queries() {
  int q = std::max(1, env_int("PCONN_QUERIES", 12));
  return options().smoke ? std::min(q, 3) : q;
}

/// Writes a finished JSON document to --json's destination.
inline void emit_json(const std::string& doc) {
  if (options().json_path.empty()) {
    std::cout << doc << "\n";
    return;
  }
  std::ofstream out(options().json_path);
  out << doc << "\n";
  if (!out) {
    std::cerr << "failed to write " << options().json_path << "\n";
    std::exit(1);
  }
  std::cerr << "wrote " << options().json_path << "\n";
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Geometric mean of positive samples (the cross-network speedup summary
/// every bench reports); 0 on an empty set.
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Tiny streaming JSON writer shared by the --json emitters: it owns comma
/// placement and key quoting so each bench only lists its fields instead of
/// hand-balancing ostringstream punctuation. Output is compact valid JSON
/// (CI re-parses the artifacts; pretty-printing is the reader's job).
class JsonWriter {
 public:
  JsonWriter& begin_object() {
    item();
    out_ << '{';
    first_ = true;
    return *this;
  }
  JsonWriter& end_object() {
    out_ << '}';
    first_ = false;
    return *this;
  }
  JsonWriter& begin_array() {
    item();
    out_ << '[';
    first_ = true;
    return *this;
  }
  JsonWriter& end_array() {
    out_ << ']';
    first_ = false;
    return *this;
  }
  JsonWriter& key(std::string_view k) {
    item();
    out_ << '"' << json_escape(k) << "\": ";
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    item();
    out_ << '"' << json_escape(v) << '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v, int digits) {
    item();
    out_ << fixed(v, digits);
    return *this;
  }
  JsonWriter& value(bool v) {
    item();
    out_ << (v ? "true" : "false");
    return *this;
  }
  template <typename Int>
    requires std::is_integral_v<Int> && (!std::is_same_v<Int, bool>)
  JsonWriter& value(Int v) {
    item();
    out_ << v;
    return *this;
  }
  /// Splices a pre-rendered JSON fragment (e.g. a line captured from a
  /// micro loop) as one value.
  JsonWriter& raw(std::string_view json) {
    item();
    out_ << json;
    return *this;
  }
  template <typename V, typename... Extra>
  JsonWriter& field(std::string_view k, V&& v, Extra... extra) {
    key(k);
    return value(std::forward<V>(v), extra...);
  }
  std::string str() const { return out_.str(); }

 private:
  void item() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ << ", ";
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
  bool after_key_ = false;
};

/// Opens the artifact document every bench emits: `{"bench": ..,
/// "workload": .., "queries_per_network": .., "scale": ..` — the caller
/// adds its fields and closes with end_object().
inline JsonWriter bench_json_doc(std::string_view bench,
                                 std::string_view workload) {
  JsonWriter w;
  w.begin_object()
      .field("bench", bench)
      .field("workload", workload)
      .field("queries_per_network", num_queries())
      .field("scale", scale(), 3);
  return w;
}

struct Network {
  gen::Preset preset;
  Timetable tt;
  TdGraph graph;
};

inline Network load_network(gen::Preset p, double s) {
  Timetable tt = gen::make_preset(p, s, 1);
  TdGraph g = TdGraph::build(tt);
  return Network{p, std::move(tt), std::move(g)};
}
inline Network load_network(gen::Preset p) { return load_network(p, scale()); }

inline void print_network_header(const Network& n) {
  std::cout << "\n== " << gen::preset_name(n.preset) << ": "
            << format_count(n.tt.num_stations()) << " stations, "
            << format_count(n.tt.num_connections())
            << " elementary connections, "
            << format_count(n.tt.num_routes()) << " routes, avg "
            << static_cast<int>(n.tt.avg_outgoing_connections())
            << " conns/station ==\n";
}

/// Deterministic random stations for query mixes.
inline std::vector<StationId> random_stations(const Timetable& tt, int count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<StationId> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    out.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  return out;
}

}  // namespace pconn::bench
