#include "graph/overlay_graph.hpp"

namespace pconn {

OverlayGraph::ProvenanceIndex OverlayGraph::build_provenance_index() const {
  ProvenanceIndex idx;
  const std::uint32_t keys = num_origin_keys();
  idx.begin.assign(keys + 1, 0);
  for (const ShortcutRec& r : shortcuts_) {
    ++idx.begin[origin_key(r.a) + 1];
    ++idx.begin[origin_key(r.b) + 1];
  }
  for (std::uint32_t k = 0; k < keys; ++k) idx.begin[k + 1] += idx.begin[k];
  idx.recs.resize(idx.begin[keys]);
  std::vector<std::uint32_t> cursor(idx.begin.begin(), idx.begin.end() - 1);
  for (std::uint32_t r = 0; r < shortcuts_.size(); ++r) {
    idx.recs[cursor[origin_key(shortcuts_[r].a)]++] = r;
    idx.recs[cursor[origin_key(shortcuts_[r].b)]++] = r;
  }
  return idx;
}

std::vector<std::span<const std::byte>> OverlayGraph::array_bytes() const {
  std::vector<std::span<const std::byte>> out = {
      rank_.bytes(),       board_shift_.bytes(), edge_begin_.bytes(),
      heads_.bytes(),      words_.bytes(),       origins_.bytes(),
      shortcuts_.bytes(),  down_node_.bytes(),   down_begin_.bytes(),
      down_tails_.bytes(), down_words_.bytes(),  down_pos_.bytes()};
  for (const auto& b : ttfs_.array_bytes()) out.push_back(b);
  return out;
}

std::size_t OverlayGraph::memory_bytes() const {
  std::size_t bytes = 0;
  bytes += rank_.size() * sizeof(std::uint32_t);
  bytes += board_shift_.size() * sizeof(Time);
  bytes += edge_begin_.size() * sizeof(std::uint32_t);
  bytes += heads_.size() * sizeof(NodeId);
  bytes += words_.size() * sizeof(std::uint32_t);
  bytes += origins_.size() * sizeof(std::uint32_t);
  bytes += shortcuts_.size() * sizeof(ShortcutRec);
  bytes += down_node_.size() * sizeof(NodeId);
  bytes += down_begin_.size() * sizeof(std::uint32_t);
  bytes += down_tails_.size() * sizeof(NodeId);
  bytes += down_words_.size() * sizeof(std::uint32_t);
  bytes += down_pos_.size() * sizeof(std::uint32_t);
  bytes += ttfs_.memory_bytes();
  return bytes;
}

std::size_t OverlayGraph::shortcut_points() const {
  std::size_t pts = 0;
  for (std::uint32_t f = num_base_ttfs_;
       f < static_cast<std::uint32_t>(ttfs_.size()); ++f) {
    pts += ttfs_.points(f).size();
  }
  return pts;
}

}  // namespace pconn
