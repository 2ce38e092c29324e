#include "graph/td_graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace pconn {

TdGraph TdGraph::build(const Timetable& tt) {
  return build(tt, TtfIndexOptions::from_env());
}

TdGraph TdGraph::build(const Timetable& tt, const TtfIndexOptions& idx) {
  TdGraph g;
  g.num_stations_ = tt.num_stations();
  g.period_ = tt.period();
  TtfPoolBuilder pool(tt.period(), idx);

  // Node numbering: stations first, then route nodes grouped by route.
  g.station_of_.resize(tt.num_stations());
  for (StationId s = 0; s < tt.num_stations(); ++s) g.station_of_[s] = s;
  g.route_node_begin_.resize(tt.num_routes());
  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    g.route_node_begin_[r] = static_cast<NodeId>(g.station_of_.size());
    for (StationId s : tt.route(r).stops) g.station_of_.push_back(s);
  }

  // Collect edges per node, already in the packed SoA encoding.
  struct RawEdge {
    NodeId head;
    std::uint32_t word;
  };
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
  std::vector<std::vector<RawEdge>> adj(g.station_of_.size());

  for (RouteId r = 0; r < tt.num_routes(); ++r) {
    const Route& route = tt.route(r);
    const std::size_t n = route.stops.size();
    for (std::size_t k = 0; k < n; ++k) {
      NodeId rn = g.route_node(r, static_cast<std::uint32_t>(k));
      StationId s = route.stops[k];
      // Alighting is free.
      adj[rn].push_back({g.station_node(s), const_word(0)});
      // Boarding pays the transfer time; boarding at the terminus is useless.
      if (k + 1 < n) {
        adj[g.station_node(s)].push_back({rn, const_word(tt.transfer_time(s))});
      }
      // Travel edge with one connection point per trip.
      if (k + 1 < n) {
        std::vector<TtfPoint> pts;
        pts.reserve(route.trips.size());
        for (TrainId t : route.trips) {
          const Trip& trip = tt.trip(t);
          Time dep = trip.departures[k] % tt.period();
          Time dur = trip.arrivals[k + 1] - trip.departures[k];
          pts.push_back({dep, dur});
        }
        const std::uint32_t ttf_idx =
            pool.add(Ttf::build(std::move(pts), tt.period()));
        adj[rn].push_back(
            {g.route_node(r, static_cast<std::uint32_t>(k + 1)), ttf_idx});
      }
    }
  }

  g.edge_begin_.assign(g.station_of_.size() + 1, 0);
  for (std::size_t v = 0; v < adj.size(); ++v) {
    g.edge_begin_[v + 1] = static_cast<std::uint32_t>(adj[v].size());
    g.max_out_degree_ =
        std::max(g.max_out_degree_, static_cast<std::uint32_t>(adj[v].size()));
  }
  std::partial_sum(g.edge_begin_.begin(), g.edge_begin_.end(),
                   g.edge_begin_.begin());
  g.heads_.reserve(g.edge_begin_.back());
  g.ttf_or_weight_.reserve(g.edge_begin_.back());
  g.ttf_out_degree_.reserve(adj.size());
  for (auto& out : adj) {
    std::size_t ttf_edges = 0;
    for (const RawEdge& e : out) {
      g.heads_.push_back(e.head);
      g.ttf_or_weight_.push_back(e.word);
      if (!word_is_const(e.word)) ++ttf_edges;
    }
    g.ttf_out_degree_.push_back(
        static_cast<std::uint8_t>(std::min<std::size_t>(ttf_edges, 255)));
  }
  g.ttfs_ = pool.finish();
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
