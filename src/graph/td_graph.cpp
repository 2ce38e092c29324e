#include "graph/td_graph.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/overlay_graph.hpp"
#include "timetable/load_error.hpp"

namespace pconn {

TdGraph TdGraph::build(const Timetable& tt) {
  TtfPoolBuilder pool(tt.period());
  TdGraph g = walk(tt, [&pool](std::span<const TtfPoint> pts) {
    return pool.add_raw(pts);
  });
  g.ttfs_ = pool.finish();
  return g;
}

TdGraph TdGraph::adopt(const Timetable& tt, const OverlayGraph& ov) {
  const auto bad_count = [](const std::string& what) {
    return LoadError(LoadError::Kind::kBadCount,
                     "adopted overlay does not match the timetable: " + what);
  };
  const TtfPool& pool = ov.ttfs();
  const std::uint32_t base = ov.num_base_ttfs();
  if (ov.period() != tt.period() || pool.period() != tt.period()) {
    throw bad_count("period");
  }
  if (ov.num_stations() != tt.num_stations()) throw bad_count("stations");
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    if (ov.board_shift(s) != tt.transfer_time(s)) {
      throw bad_count("transfer time of station " + std::to_string(s));
    }
  }
  if (base > pool.size()) throw bad_count("base functions");

  std::uint32_t next = 0;
  TdGraph g = walk(tt, [&](std::span<const TtfPoint> pts) {
    if (next >= base) throw bad_count("base functions");
    if (!std::ranges::equal(pts, pool.points(next))) {
      throw LoadError(LoadError::Kind::kCorrupt,
                      "adopted overlay does not match the timetable: base "
                      "function " + std::to_string(next) + " differs");
    }
    return next++;
  });
  if (next != base) throw bad_count("base functions");
  if (g.num_nodes() != ov.num_nodes()) throw bad_count("nodes");
  if (g.num_edges() != ov.num_base_edges()) throw bad_count("base edges");
  g.ttfs_ = pool.prefix(base);
  return g;
}

TdGraph TdGraph::rebased(const OverlayGraph& ov) const {
  const auto differs = [] {
    return std::logic_error(
        "td_graph: overlay base functions differ from the graph's pool");
  };
  const auto n = static_cast<std::uint32_t>(ttfs_.size());
  if (ov.num_base_ttfs() != n || ov.period() != period_) throw differs();
  TdGraph g = *this;
  g.ttfs_ = ov.ttfs().prefix(n);
  const auto same = [](std::span<const std::byte> a,
                       std::span<const std::byte> b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  };
  if (!std::ranges::equal(ttfs_.array_bytes(), g.ttfs_.array_bytes(), same)) {
    throw differs();
  }
  return g;
}

TdGraph TdGraph::walk(const Timetable& tt,
                      FunctionRef<std::uint32_t(std::span<const TtfPoint>)> ttf) {
  TdGraph g;
  g.num_stations_ = tt.num_stations();
  g.period_ = tt.period();

  // Node numbering: stations first, then route nodes grouped by route.
  std::vector<StationId> station_of(tt.num_stations());
  std::iota(station_of.begin(), station_of.end(), StationId{0});
  std::vector<NodeId> route_node_begin(tt.num_routes());
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    route_node_begin[r] = static_cast<NodeId>(station_of.size());
    for (StationId s : tt.route(r).stops) station_of.push_back(s);
  }
  const std::size_t n = station_of.size();

  // Out-degrees, then CSR offsets. A route node has its alight edge and,
  // unless it is the terminus, a travel edge; a station has one board
  // edge per non-terminal stop of a route at it.
  std::vector<std::uint32_t> edge_begin(n + 1, 0);
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    const auto stops = tt.route(r).stops;
    for (std::size_t k = 0; k < stops.size(); ++k) {
      const bool travels = k + 1 < stops.size();
      edge_begin[route_node_begin[r] + k + 1] = travels ? 2 : 1;
      if (travels) ++edge_begin[stops[k] + 1];
    }
  }
  std::partial_sum(edge_begin.begin(), edge_begin.end(), edge_begin.begin());

  // The packed word encoding steals the top bit for the const flag; a
  // weight that collides with it would silently alias a TTF index in
  // Release builds, so reject it loudly (a transfer time this large is a
  // data error anyway — the builder already caps it at the period).
  auto const_word = [](Time weight) {
    if (weight >= kConstFlag) {
      throw std::invalid_argument(
          "td_graph: constant edge weight " + std::to_string(weight) +
          " exceeds the encodable range");
    }
    return kConstFlag | static_cast<std::uint32_t>(weight);
  };
  // Fill each node's block in (route, position) order, the order edges
  // and functions are numbered in.
  std::vector<std::uint32_t> cursor(edge_begin.begin(), edge_begin.end() - 1);
  std::vector<NodeId> heads(edge_begin.back());
  std::vector<std::uint32_t> words(edge_begin.back());
  const auto add_edge = [&](NodeId tail, NodeId head, std::uint32_t word) {
    heads[cursor[tail]] = head;
    words[cursor[tail]++] = word;
  };
  std::vector<TtfPoint> pts;
  std::vector<std::uint8_t> keep;
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    const Route route = tt.route(r);
    const std::size_t len = route.stops.size();
    for (std::size_t k = 0; k < len; ++k) {
      const NodeId rn = route_node_begin[r] + static_cast<NodeId>(k);
      const StationId s = route.stops[k];
      // Alighting is free.
      add_edge(rn, s, const_word(0));
      // Boarding pays the transfer time; boarding at the terminus is
      // useless. The travel edge carries one connection point per trip.
      if (k + 1 < len) {
        add_edge(s, rn, const_word(tt.transfer_time(s)));
        pts.clear();
        for (TrainId t : route.trips) {
          const Trip& trip = tt.trip(t);
          pts.push_back({trip.departures[k] % tt.period(),
                         trip.arrivals[k + 1] - trip.departures[k]});
        }
        Ttf::normalize(pts, tt.period(), keep);
        add_edge(rn, rn + 1, ttf(pts));
      }
    }
  }

  g.station_of_ = ConstArray(std::move(station_of));
  g.route_node_begin_ = ConstArray(std::move(route_node_begin));
  g.edge_begin_ = ConstArray(std::move(edge_begin));
  g.heads_ = ConstArray(std::move(heads));
  g.ttf_or_weight_ = ConstArray(std::move(words));
  return g;
}

std::size_t TdGraph::memory_bytes() const {
  std::size_t bytes = 0;
  bytes += station_of_.size() * sizeof(StationId);
  bytes += route_node_begin_.size() * sizeof(NodeId);
  bytes += edge_begin_.size() * sizeof(std::uint32_t);
  bytes += heads_.size() * sizeof(NodeId);
  bytes += ttf_or_weight_.size() * sizeof(std::uint32_t);
  bytes += ttfs_.memory_bytes();
  return bytes;
}

}  // namespace pconn
