// PCSN — the one persisted format: a timetable plus (optionally) its
// contraction overlay as native, 8-byte-aligned sections that a process
// maps read-only and serves from in place.
//
// Layout (version 5, little-endian): the header (magic "PCSN", version,
// file size, section count) and a table of {tag, offset, size} entries,
// then one section per array:
//   - timetable: meta (period and the five counts), station name offsets
//     and bytes, transfer times, the route CSR (stop and trip offsets,
//     stops, trips), the trip CSR (route per trip, row offsets, arrival
//     and departure rows), the sorted connections and their per-station
//     offsets — exactly the arrays Timetable reads;
//   - overlay (all or none): meta (scalars, counts, the ContractionStats
//     with its time as 0 so a file's bytes never depend on the clock),
//     rank, board shifts, the upward CSR (offsets, heads, words, origins),
//     shortcut records, the down-sweep arrays (order, offsets, tails,
//     words, positions) and the TtfPool's points, metadata and bucket
//     index — exactly the arrays OverlayGraph and TtfPool read.
//
// Adoption: load_timetable()/load_overlay() validate every section in
// place and return objects whose ConstArrays point into the mapping. A
// shared owner unmaps the file when the last adopted array is gone, so
// the objects outlive their MappedSnapshot. N shards mapping one file
// hold its pages once, in the page cache, and a restart copies nothing.
//
// Trust model: a snapshot file is immutable once published. save_snapshot
// writes `<path>.tmp.<pid>` and rename(2)s it over `path`, so a reader
// maps either the old file or the new one, never a half-written one, and
// a mapping is never truncated under a live shard. Each load validates
// its sections once, at map time, before anything is adopted:
//   - header/section table: magic, version (a v1-v4 file is
//     kBadVersion: v2 still carried per-node TTF out-degrees, v3 the
//     pool's index options, v4 one index bucket per point), recorded file
//     size, section bounds and alignment;
//   - every section's byte size against the count its meta implies, before
//     the section is read (a lying count is kBadCount);
//   - timetable: every CSR monotone, every id in range, per-trip times
//     non-decreasing, routes FIFO (non-overtaking), every connection
//     cross-checked against the trip that claims it;
//   - overlay: CSR monotonicity, head/word/origin/record ranges, record
//     acyclicity, rank-descending down order, down positions the exact
//     inverse of it; the pool's functions contiguous with sorted points,
//     and its bucket index recomputed from the points and compared;
//   - base functions, when a LiveOverlay adopts the pair: the flat graph
//     reads the overlay pool's first num_base_ttfs() functions instead of
//     building its own, so TdGraph::adopt recomputes each of them from
//     the adopted timetable and compares them point for point (an overlay
//     contracted from another timetable is kCorrupt, a count or transfer
//     time that disagrees is kBadCount).
// The contract is valid-or-thrown: any truncation or bit flip yields a
// typed LoadError, never a crash — tests/serialize_test.cpp sweeps both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "graph/overlay_graph.hpp"
#include "timetable/load_error.hpp"
#include "timetable/timetable.hpp"
#include "util/fault_injector.hpp"

namespace pconn {

/// Writes `tt` (+ `ov`, when non-null) as one snapshot file at `path`,
/// published atomically (temp file + rename). Throws std::runtime_error on
/// IO failure. The overlay must have been built from `tt` — adoption
/// (TdGraph::adopt) checks its base functions against the timetable.
void save_snapshot(const Timetable& tt, const OverlayGraph* ov,
                   const std::string& path);

/// A read-only mapping of a snapshot file. The constructor maps and
/// validates the header + section table; load_timetable()/load_overlay()
/// validate their sections and adopt them in place. Throws LoadError (see
/// the ladder above); fault site kSnapshotMap forces the map-failure path.
class MappedSnapshot {
 public:
  explicit MappedSnapshot(const std::string& path,
                          FaultInjector* faults = nullptr);

  /// A Timetable whose arrays are the file's sections. Throws LoadError on
  /// any inconsistency.
  Timetable load_timetable() const;

  /// True when the snapshot carries the overlay sections.
  bool has_overlay() const { return has_overlay_; }

  /// An OverlayGraph (and TtfPool) whose arrays are the file's sections.
  /// Throws LoadError; throws std::logic_error when has_overlay() is false.
  OverlayGraph load_overlay() const;

  std::size_t file_size() const { return size_; }
  /// The mapped file; every adopted array lies inside it.
  std::span<const char> bytes() const { return {map_.get(), size_}; }

 private:
  struct Section {
    const char* data;
    std::size_t size;
  };
  Section section(std::uint32_t tag) const;
  /// Section `tag` as `count` elements of T, owned by the mapping; throws
  /// kBadCount unless its size is exactly count * sizeof(T).
  template <typename T>
  ConstArray<T> array(std::uint32_t tag, std::size_t count,
                      const char* what) const;

  std::shared_ptr<const char> map_;  // unmaps when the last view is gone
  std::size_t size_ = 0;
  bool has_overlay_ = false;
};

}  // namespace pconn
