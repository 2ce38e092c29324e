#include "timetable/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace pconn {

namespace {

constexpr char kSnapMagic[4] = {'P', 'C', 'S', 'N'};
constexpr std::uint32_t kSnapVersion = 4;

// Section tags. Fixed enumeration, versioned with the file: the timetable
// sections are required, the overlay sections come all or none, and each
// one's byte size is implied by its meta counts — the loader refuses a
// section whose recorded size does not match before it reads a byte.
enum : std::uint32_t {
  kSecMeta = 1,            // u32[6]: period, stations, trips, routes,
                           //         connections, total stop-times
  kSecNameOffsets = 2,     // u32[stations + 1]
  kSecNameBytes = 3,       // char[name_offsets.back()]
  kSecTransferTimes = 4,   // u32[stations]
  kSecRouteStopBegin = 5,  // u32[routes + 1]
  kSecRouteStops = 6,      // u32[route_stop_begin.back()]
  kSecRouteTripBegin = 7,  // u32[routes + 1]
  kSecRouteTrips = 8,      // u32[trips]
  kSecTripRoute = 9,       // u32[trips]
  kSecTripBegin = 10,      // u32[trips + 1]
  kSecTripArrivals = 11,   // u32[total stop-times]
  kSecTripDepartures = 12, // u32[total stop-times]
  kSecConnections = 13,    // Connection[connections]
  kSecConnBegin = 14,      // u32[stations + 1]
  kSecOvMeta = 20,         // OverlayMeta
  kSecOvRank = 21,         // u32[nodes]
  kSecOvBoardShift = 22,   // u32[stations]
  kSecOvEdgeBegin = 23,    // u32[nodes + 1]
  kSecOvHeads = 24,        // u32[edges]
  kSecOvWords = 25,        // u32[edges]
  kSecOvOrigins = 26,      // u32[edges]
                           // 27: per-node TTF out-degrees, up to version 2
  kSecOvShortcuts = 28,    // ShortcutRec[shortcuts]
  kSecOvDownNode = 29,     // u32[contracted]
  kSecOvDownBegin = 30,    // u32[contracted + 1]
  kSecOvDownTails = 31,    // u32[down edges]
  kSecOvDownWords = 32,    // u32[down edges]
  kSecOvDownPos = 33,      // u32[nodes]
  kSecPoolPoints = 34,     // TtfPoint[points]
  kSecPoolMeta = 35,       // TtfPool::TtfMeta[functions]
  kSecPoolBuckets = 36,    // u32[buckets]
};

/// The overlay's scalars and array lengths and its ContractionStats. All
/// 8-byte fields: no padding.
/// contraction_ms is always written as 0: a wall-clock reading would make
/// two saves of one overlay differ, so a loaded overlay reports none.
struct OverlayMeta {
  std::uint64_t nodes, stations, core, period, base_ttfs, base_edges, edges,
      shortcuts, contracted, down_edges, funcs, points, buckets,
      contracted_nodes, frozen, rounds, shortcut_edges, merges,
      witness_dropped, witness_searches;
  double contraction_ms;
};
static_assert(sizeof(OverlayMeta) == 21 * 8);

struct SectionEntry {
  std::uint32_t tag = 0;
  std::uint32_t pad = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};
static_assert(sizeof(SectionEntry) == 24);

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;  // magic..pad
constexpr std::size_t kAlign = 8;

std::size_t aligned(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

[[noreturn]] void fail(LoadError::Kind kind, const std::string& what) {
  throw LoadError(kind, "snapshot: " + what);
}

static_assert(std::is_trivially_copyable_v<Connection> &&
                  sizeof(Connection) == 24,
              "snapshot stores Connection[] verbatim");
static_assert(sizeof(OverlayGraph::ShortcutRec) == 16 &&
              sizeof(TtfPool::TtfMeta) == 16 && sizeof(TtfPoint) == 8);

}  // namespace

// ---------------------------------------------------------------------------
// save_snapshot

void save_snapshot(const Timetable& tt, const OverlayGraph* ov,
                   const std::string& path) {
  struct Payload {
    std::uint32_t tag;
    const void* data;
    std::size_t size;
  };
  const auto arr = [](std::uint32_t tag, const auto& a) {
    return Payload{tag, a.data(), a.size() * sizeof(*a.data())};
  };
  const std::uint32_t meta[6] = {
      tt.period(),
      static_cast<std::uint32_t>(tt.num_stations()),
      static_cast<std::uint32_t>(tt.num_trips()),
      static_cast<std::uint32_t>(tt.num_routes()),
      static_cast<std::uint32_t>(tt.num_connections()),
      static_cast<std::uint32_t>(tt.arrivals_.size()),
  };
  std::vector<Payload> sections = {
      {kSecMeta, meta, sizeof(meta)},
      arr(kSecNameOffsets, tt.name_begin_),
      arr(kSecNameBytes, tt.name_bytes_),
      arr(kSecTransferTimes, tt.transfer_times_),
      arr(kSecRouteStopBegin, tt.route_stop_begin_),
      arr(kSecRouteStops, tt.route_stops_),
      arr(kSecRouteTripBegin, tt.route_trip_begin_),
      arr(kSecRouteTrips, tt.route_trips_),
      arr(kSecTripRoute, tt.trip_route_),
      arr(kSecTripBegin, tt.trip_begin_),
      arr(kSecTripArrivals, tt.arrivals_),
      arr(kSecTripDepartures, tt.departures_),
      arr(kSecConnections, tt.connections_),
      arr(kSecConnBegin, tt.conn_begin_),
  };
  OverlayMeta om{};
  if (ov != nullptr) {
    const ContractionStats& st = ov->build_stats_;
    om = {ov->num_nodes(), ov->num_stations_, ov->num_core_, ov->period_,
          ov->num_base_ttfs_, ov->num_base_edges_, ov->num_edges(),
          ov->num_shortcuts(), ov->num_contracted(), ov->down_tails_.size(),
          ov->ttfs_.size(), ov->ttfs_.num_points(),
          ov->ttfs_.bucket_idx_.size(), st.contracted, st.frozen,
          st.rounds, st.shortcuts, st.merges, st.witness_dropped,
          st.witness_searches, 0.0};
    sections.insert(
        sections.end(),
        {{kSecOvMeta, &om, sizeof(om)},
         arr(kSecOvRank, ov->rank_),
         arr(kSecOvBoardShift, ov->board_shift_),
         arr(kSecOvEdgeBegin, ov->edge_begin_),
         arr(kSecOvHeads, ov->heads_),
         arr(kSecOvWords, ov->words_),
         arr(kSecOvOrigins, ov->origins_),
         arr(kSecOvShortcuts, ov->shortcuts_),
         arr(kSecOvDownNode, ov->down_node_),
         arr(kSecOvDownBegin, ov->down_begin_),
         arr(kSecOvDownTails, ov->down_tails_),
         arr(kSecOvDownWords, ov->down_words_),
         arr(kSecOvDownPos, ov->down_pos_),
         arr(kSecPoolPoints, ov->ttfs_.points_),
         arr(kSecPoolMeta, ov->ttfs_.meta_),
         arr(kSecPoolBuckets, ov->ttfs_.bucket_idx_)});
  }

  std::vector<SectionEntry> table(sections.size());
  std::size_t offset =
      aligned(kHeaderBytes + sections.size() * sizeof(SectionEntry));
  for (std::size_t i = 0; i < sections.size(); ++i) {
    table[i].tag = sections[i].tag;
    table[i].offset = offset;
    table[i].size = sections[i].size;
    offset += aligned(sections[i].size);
  }
  const std::uint64_t file_size = offset;

  // Publish atomically: readers map the old file or the new one, never a
  // half-written one, and a live mapping is never truncated under them.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("snapshot: cannot open " + tmp);
    const auto put = [&out](const void* p, std::size_t bytes) {
      out.write(static_cast<const char*>(p),
                static_cast<std::streamsize>(bytes));
    };
    const auto pad_to = [&](std::size_t target) {
      static const char zeros[kAlign] = {};
      const auto pos = static_cast<std::size_t>(out.tellp());
      if (pos < target) put(zeros, target - pos);
    };
    put(kSnapMagic, 4);
    const std::uint32_t version = kSnapVersion;
    put(&version, 4);
    put(&file_size, 8);
    const std::uint32_t count = static_cast<std::uint32_t>(sections.size());
    put(&count, 4);
    const std::uint32_t zero = 0;
    put(&zero, 4);
    put(table.data(), table.size() * sizeof(SectionEntry));
    for (std::size_t i = 0; i < sections.size(); ++i) {
      pad_to(table[i].offset);
      put(sections[i].data, sections[i].size);
    }
    pad_to(file_size);
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("snapshot: write failure on " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: cannot publish " + path + ": " +
                             std::strerror(err));
  }
}

// ---------------------------------------------------------------------------
// MappedSnapshot

MappedSnapshot::MappedSnapshot(const std::string& path,
                               FaultInjector* faults) {
  if (faults != nullptr) faults->check(FaultInjector::Site::kSnapshotMap);

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(LoadError::Kind::kMissingFile,
         "cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(LoadError::Kind::kMissingFile, "fstat failed on " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ < kHeaderBytes) {
    ::close(fd);
    fail(LoadError::Kind::kTruncated, "file smaller than the header");
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    fail(LoadError::Kind::kMissingFile, "mmap failed on " + path);
  }
  map_ = std::shared_ptr<const char>(
      static_cast<const char*>(map),
      [size = size_](const char* p) { ::munmap(const_cast<char*>(p), size); });
  const char* base = map_.get();

  // Header + section table: everything below is checked before any
  // section payload is dereferenced. A throw here unmaps through map_.
  if (std::memcmp(base, kSnapMagic, 4) != 0) {
    fail(LoadError::Kind::kBadMagic, "bad magic");
  }
  std::uint32_t version;
  std::memcpy(&version, base + 4, 4);
  if (version != kSnapVersion) {
    fail(LoadError::Kind::kBadVersion,
         "unsupported version " + std::to_string(version));
  }
  std::uint64_t recorded_size;
  std::memcpy(&recorded_size, base + 8, 8);
  if (recorded_size != size_) {
    fail(LoadError::Kind::kTruncated,
         "recorded size " + std::to_string(recorded_size) + " != file size " +
             std::to_string(size_));
  }
  std::uint32_t count;
  std::memcpy(&count, base + 16, 4);
  if (count == 0 || count > 64) {
    fail(LoadError::Kind::kBadCount, "absurd section count");
  }
  if (kHeaderBytes + std::size_t{count} * sizeof(SectionEntry) > size_) {
    fail(LoadError::Kind::kTruncated, "section table past end of file");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionEntry e;
    std::memcpy(&e, base + kHeaderBytes + i * sizeof(SectionEntry),
                sizeof(e));
    // Aligned offsets make every section a valid array of its element
    // type (all of which need at most 8-byte alignment) in place.
    if (e.offset % kAlign != 0 || e.offset > size_ ||
        e.size > size_ - e.offset) {
      fail(LoadError::Kind::kTruncated, "section bounds past end of file");
    }
    if (e.tag == kSecOvMeta) has_overlay_ = true;
  }
}

MappedSnapshot::Section MappedSnapshot::section(std::uint32_t tag) const {
  const char* base = map_.get();
  std::uint32_t count;
  std::memcpy(&count, base + 16, 4);
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionEntry e;
    std::memcpy(&e, base + kHeaderBytes + i * sizeof(SectionEntry),
                sizeof(e));
    if (e.tag == tag) return {base + e.offset, e.size};
  }
  fail(LoadError::Kind::kCorrupt, "missing section " + std::to_string(tag));
}

template <typename T>
ConstArray<T> MappedSnapshot::array(std::uint32_t tag, std::size_t count,
                                    const char* what) const {
  static_assert(std::is_trivially_copyable_v<T> && alignof(T) <= kAlign);
  const Section s = section(tag);
  if (s.size != count * sizeof(T)) {
    fail(LoadError::Kind::kBadCount,
         std::string(what) + " section size " + std::to_string(s.size) +
             " != expected " + std::to_string(count * sizeof(T)));
  }
  // Read in place as T: the mapped bytes hold no other objects, every T is
  // trivially copyable and the offset is aligned (checked at map time).
  return ConstArray<T>(reinterpret_cast<const T*>(s.data), count, map_);
}

Timetable MappedSnapshot::load_timetable() const {
  const auto corrupt = [](bool ok, const char* what) {
    if (!ok) fail(LoadError::Kind::kCorrupt, what);
  };

  const Section meta_sec = section(kSecMeta);
  if (meta_sec.size != 6 * 4) fail(LoadError::Kind::kBadCount, "meta size");
  std::uint32_t meta[6];
  std::memcpy(meta, meta_sec.data, sizeof(meta));
  const Time period = meta[0];
  const std::size_t n = meta[1];
  const std::size_t num_trips = meta[2];
  const std::size_t num_routes = meta[3];
  const std::size_t num_conns = meta[4];
  const std::size_t total_times = meta[5];
  corrupt(period > 0 && period < (Time{1} << 30), "invalid period");
  // Dimension sanity: every per-element section size is re-derived from
  // these, and the section-size check bounds them by the file size — the
  // cap here just keeps the arithmetic below overflow-free.
  for (int i = 1; i < 6; ++i) {
    if (meta[i] > (1u << 28)) {
      fail(LoadError::Kind::kBadCount, "absurd meta count");
    }
  }
  corrupt(total_times >= num_trips && num_conns == total_times - num_trips,
          "connection count != stop-times - trips");

  Timetable tt;
  tt.period_ = period;
  const auto& name_off = tt.name_begin_ =
      array<std::uint32_t>(kSecNameOffsets, n + 1, "name offsets");
  const auto& transfer = tt.transfer_times_ =
      array<Time>(kSecTransferTimes, n, "transfer times");
  const auto& route_stop_begin = tt.route_stop_begin_ =
      array<std::uint32_t>(kSecRouteStopBegin, num_routes + 1,
                           "route stop begin");
  corrupt(route_stop_begin.front() == 0, "route stop begin front");
  for (std::size_t r = 0; r < num_routes; ++r) {
    corrupt(route_stop_begin[r] <= route_stop_begin[r + 1],
            "route stop begin not monotone");
    corrupt(route_stop_begin[r + 1] - route_stop_begin[r] >= 2,
            "route with fewer than 2 stops");
  }
  const auto& route_stops = tt.route_stops_ = array<StationId>(
      kSecRouteStops, route_stop_begin.back(), "route stops");
  const auto& route_trip_begin = tt.route_trip_begin_ = array<std::uint32_t>(
      kSecRouteTripBegin, num_routes + 1, "route trip begin");
  corrupt(route_trip_begin.front() == 0 &&
              route_trip_begin.back() == num_trips,
          "route trip begin bounds");
  for (std::size_t r = 0; r < num_routes; ++r) {
    corrupt(route_trip_begin[r] <= route_trip_begin[r + 1],
            "route trip begin not monotone");
  }
  const auto& route_trips = tt.route_trips_ =
      array<TrainId>(kSecRouteTrips, num_trips, "route trips");
  const auto& trip_route = tt.trip_route_ =
      array<RouteId>(kSecTripRoute, num_trips, "trip route");
  const auto& trip_begin = tt.trip_begin_ =
      array<std::uint32_t>(kSecTripBegin, num_trips + 1, "trip begin");
  corrupt(trip_begin.front() == 0 && trip_begin.back() == total_times,
          "trip begin bounds");
  const auto& arrivals = tt.arrivals_ =
      array<Time>(kSecTripArrivals, total_times, "trip arrivals");
  const auto& departures = tt.departures_ =
      array<Time>(kSecTripDepartures, total_times, "trip departures");
  const auto& conn_begin = tt.conn_begin_ =
      array<std::uint32_t>(kSecConnBegin, n + 1, "conn begin");

  const Section names = section(kSecNameBytes);
  corrupt(name_off.back() == names.size, "name offsets vs bytes");
  tt.name_bytes_ = array<char>(kSecNameBytes, names.size, "name bytes");
  for (std::size_t s = 0; s < n; ++s) {
    corrupt(name_off[s] <= name_off[s + 1], "name offsets not monotone");
    corrupt(transfer[s] < period, "transfer time >= period");
  }

  // Stop sequences: ids in range, no immediate self-loops (the builder
  // rejects both, and TdGraph::build indexes stations by these).
  for (std::size_t i = 0; i < route_stops.size(); ++i) {
    corrupt(route_stops[i] < n, "route stop out of range");
  }
  for (std::size_t r = 0; r < num_routes; ++r) {
    for (std::size_t i = route_stop_begin[r] + 1; i < route_stop_begin[r + 1];
         ++i) {
      corrupt(route_stops[i - 1] != route_stops[i], "immediate self-loop");
    }
  }

  // Trip <-> route bijection: every trip listed exactly once, under the
  // route it claims, with a time row exactly as long as the stop sequence.
  {
    std::vector<bool> seen(num_trips, false);
    for (std::size_t r = 0; r < num_routes; ++r) {
      for (std::size_t i = route_trip_begin[r]; i < route_trip_begin[r + 1];
           ++i) {
        const std::uint32_t t = route_trips[i];
        corrupt(t < num_trips, "route trip out of range");
        corrupt(!seen[t], "trip listed twice");
        seen[t] = true;
        corrupt(trip_route[t] == r, "trip route mismatch");
      }
    }
  }
  for (std::size_t t = 0; t < num_trips; ++t) {
    corrupt(trip_route[t] < num_routes, "trip route out of range");
    corrupt(trip_begin[t] <= trip_begin[t + 1], "trip begin not monotone");
    const std::size_t len = trip_begin[t + 1] - trip_begin[t];
    const std::uint32_t r = trip_route[t];
    corrupt(len == route_stop_begin[r + 1] - route_stop_begin[r],
            "trip length != route length");
    // Raw times: non-decreasing along the trip with >= 1 s between stops,
    // in the signed range the TTF kernels assume. The builder pins the
    // endpoints — arrivals[0] == departures[0] and departures[len-1] ==
    // arrivals[len-1] — so equality is required, not just dwell order
    // (timetable/builder.cpp; validate() checks the same invariants on
    // the adopted arrays).
    const std::uint32_t* arr = arrivals.data() + trip_begin[t];
    const std::uint32_t* dep = departures.data() + trip_begin[t];
    corrupt(dep[0] < period, "first departure >= period");
    for (std::size_t k = 0; k < len; ++k) {
      corrupt(arr[k] < (1u << 31) && dep[k] < (1u << 31),
              "trip time out of range");
    }
    corrupt(arr[0] == dep[0], "first arrival != first departure");
    corrupt(dep[len - 1] == arr[len - 1], "last departure != last arrival");
    for (std::size_t k = 1; k < len; ++k) {
      corrupt(arr[k] >= dep[k - 1] + 1, "non-increasing trip times");
      corrupt(dep[k] >= arr[k], "negative dwell time");
    }
  }

  // FIFO (non-overtaking) within each route: consecutive trips must be
  // component-wise ordered at every stop — the property that makes the
  // per-edge TTFs FIFO, which every query engine assumes.
  for (std::size_t r = 0; r < num_routes; ++r) {
    const std::size_t len = route_stop_begin[r + 1] - route_stop_begin[r];
    for (std::size_t i = route_trip_begin[r] + 1; i < route_trip_begin[r + 1];
         ++i) {
      const std::uint32_t t1 = route_trips[i - 1];
      const std::uint32_t t2 = route_trips[i];
      for (std::size_t k = 0; k < len; ++k) {
        corrupt(departures[trip_begin[t1] + k] <=
                        departures[trip_begin[t2] + k] &&
                    arrivals[trip_begin[t1] + k] <=
                        arrivals[trip_begin[t2] + k],
                "route not FIFO");
      }
    }
  }

  // Connections: the sorted per-station index, cross-checked against the
  // trip that claims each one — a bit flip in either world fails here.
  const auto& conns = tt.connections_ =
      array<Connection>(kSecConnections, num_conns, "connections");
  corrupt(conn_begin.front() == 0 && conn_begin.back() == num_conns,
          "conn begin bounds");
  std::vector<bool> conn_seen(total_times, false);
  for (std::size_t s = 0; s < n; ++s) {
    corrupt(conn_begin[s] <= conn_begin[s + 1], "conn begin not monotone");
    for (std::size_t i = conn_begin[s]; i < conn_begin[s + 1]; ++i) {
      const Connection& c = conns[i];
      corrupt(c.from == s, "connection filed under wrong station");
      corrupt(c.to < n, "connection head out of range");
      corrupt(c.train < num_trips, "connection train out of range");
      const std::uint32_t r = trip_route[c.train];
      const std::size_t len = route_stop_begin[r + 1] - route_stop_begin[r];
      corrupt(std::size_t{c.pos} + 1 < len, "connection pos out of range");
      corrupt(route_stops[route_stop_begin[r] + c.pos] == c.from &&
                  route_stops[route_stop_begin[r] + c.pos + 1] == c.to,
              "connection endpoints vs route");
      const std::size_t row = trip_begin[c.train];
      const std::uint32_t t_dep = departures[row + c.pos];
      const std::uint32_t t_arr = arrivals[row + c.pos + 1];
      corrupt(c.dep == t_dep % period && c.arr >= c.dep &&
                  c.arr - c.dep == t_arr - t_dep,
              "connection times vs trip");
      corrupt(!conn_seen[row + c.pos], "duplicate connection");
      conn_seen[row + c.pos] = true;
      corrupt(i == conn_begin[s] || conns[i - 1].dep < c.dep ||
                  (conns[i - 1].dep == c.dep && conns[i - 1].arr <= c.arr),
              "connections not sorted");
    }
  }
  // Everything checked: the sections are the timetable. No route
  // partitioning, no connection sort, no copy.
  return tt;
}

OverlayGraph MappedSnapshot::load_overlay() const {
  if (!has_overlay()) {
    throw std::logic_error("snapshot: no overlay section");
  }
  const auto structural = [](bool ok, const char* what) {
    if (!ok) {
      fail(LoadError::Kind::kCorrupt,
           std::string("overlay: inconsistent structure (") + what + ")");
    }
  };
  const Section meta_sec = section(kSecOvMeta);
  if (meta_sec.size != sizeof(OverlayMeta)) {
    fail(LoadError::Kind::kBadCount, "overlay meta size");
  }
  OverlayMeta m;
  std::memcpy(&m, meta_sec.data, sizeof(m));
  // The pool divides by the period (reciprocal precompute) and the AVX2
  // kernels compare times in signed 32-bit lanes; reject garbage before
  // either sees it.
  if (m.period == 0 || m.period >= (Time{1} << 30)) {
    fail(LoadError::Kind::kCorrupt, "overlay: invalid period");
  }
  for (const std::uint64_t c :
       {m.nodes, m.stations, m.core, m.base_ttfs, m.base_edges, m.edges,
        m.shortcuts, m.contracted, m.down_edges, m.funcs, m.points,
        m.buckets}) {
    if (c > (1u << 28)) {
      fail(LoadError::Kind::kBadCount, "absurd overlay count");
    }
  }
  if (m.funcs != m.base_ttfs + m.shortcuts) {
    fail(LoadError::Kind::kBadCount,
         "overlay: pool size " + std::to_string(m.funcs) +
             " != base ttfs + shortcut records " +
             std::to_string(m.base_ttfs + m.shortcuts));
  }
  const std::size_t n = m.nodes;
  structural(m.stations <= n, "stations > nodes");
  structural(m.core <= n, "core > nodes");

  OverlayGraph ov;
  ov.num_stations_ = m.stations;
  ov.num_core_ = m.core;
  ov.period_ = static_cast<Time>(m.period);
  ov.num_base_ttfs_ = static_cast<std::uint32_t>(m.base_ttfs);
  ov.num_base_edges_ = static_cast<std::uint32_t>(m.base_edges);
  ov.build_stats_ = {static_cast<std::uint32_t>(m.contracted_nodes),
                     static_cast<std::uint32_t>(m.frozen),
                     static_cast<std::uint32_t>(m.rounds),
                     m.shortcut_edges,
                     m.merges,
                     m.witness_dropped,
                     m.witness_searches,
                     0.0};  // contraction time is not persisted

  const auto& rank = ov.rank_ = array<std::uint32_t>(kSecOvRank, n, "rank");
  ov.board_shift_ = array<Time>(kSecOvBoardShift, m.stations, "board_shift");
  for (const Time shift : ov.board_shift_) {
    structural(shift < ov.period_, "board shift >= period");
  }
  const auto& edge_begin = ov.edge_begin_ =
      array<std::uint32_t>(kSecOvEdgeBegin, n + 1, "edge_begin");
  structural(edge_begin.front() == 0, "edge_begin front");
  for (std::size_t v = 0; v < n; ++v) {
    structural(edge_begin[v] <= edge_begin[v + 1], "edge_begin not monotone");
  }
  structural(edge_begin.back() == m.edges, "edge_begin back");
  const auto& heads = ov.heads_ = array<NodeId>(kSecOvHeads, m.edges, "heads");
  const auto& words = ov.words_ =
      array<std::uint32_t>(kSecOvWords, m.edges, "words");
  const auto& origins = ov.origins_ =
      array<std::uint32_t>(kSecOvOrigins, m.edges, "origins");
  const auto& shortcuts = ov.shortcuts_ = array<OverlayGraph::ShortcutRec>(
      kSecOvShortcuts, m.shortcuts, "shortcuts");
  const auto& down_node = ov.down_node_ =
      array<NodeId>(kSecOvDownNode, m.contracted, "down_node");
  const auto& down_begin = ov.down_begin_ =
      array<std::uint32_t>(kSecOvDownBegin, m.contracted + 1, "down_begin");
  structural(down_begin.front() == 0, "down_begin front");
  for (std::size_t i = 0; i < m.contracted; ++i) {
    structural(down_begin[i] <= down_begin[i + 1], "down_begin not monotone");
  }
  structural(down_begin.back() == m.down_edges, "down_begin back");
  const auto& down_tails = ov.down_tails_ =
      array<NodeId>(kSecOvDownTails, m.down_edges, "down_tails");
  const auto& down_words = ov.down_words_ =
      array<std::uint32_t>(kSecOvDownWords, m.down_edges, "down_words");
  const auto& down_pos = ov.down_pos_ =
      array<std::uint32_t>(kSecOvDownPos, n, "down_pos");

  // Cross-array structural validation: a bit-flipped or hand-edited file
  // must fail here with a diagnostic, not at query time with an
  // out-of-bounds relax. Word references are checked against the pool
  // size the meta implies, which the pool sections then must match.
  const auto word_ok = [&](std::uint32_t w) {
    return TdGraph::word_is_const(w) || w < m.funcs;
  };
  const auto origin_ok = [&](std::uint32_t o) {
    // Shortcut origins index the record table; flat edge ids index the
    // base graph whose edge count the meta records (the engine ctors
    // additionally assert that count against the graph they are given).
    return OverlayGraph::origin_is_shortcut(o)
               ? (o & ~OverlayGraph::kShortcutBit) < m.shortcuts
               : o < m.base_edges;
  };
  for (std::size_t e = 0; e < m.edges; ++e) {
    structural(heads[e] < n, "edge head out of range");
    structural(word_ok(words[e]), "edge word out of range");
    structural(origin_ok(origins[e]), "edge origin out of range");
  }
  for (std::size_t i = 0; i < m.shortcuts; ++i) {
    const OverlayGraph::ShortcutRec& r = shortcuts[i];
    structural(word_ok(r.word), "record word out of range");
    structural(r.mid == kInvalidNode || r.mid < n, "record mid out of range");
    structural(origin_ok(r.a) && origin_ok(r.b), "record leg out of range");
    // Records only ever reference earlier records (construction appends a
    // merge right after the link it folds in), which is what keeps the
    // journey replay's recursion finite — reject cycles here, not by
    // stack overflow.
    const auto acyclic = [&](std::uint32_t o) {
      return !OverlayGraph::origin_is_shortcut(o) ||
             (o & ~OverlayGraph::kShortcutBit) < i;
    };
    structural(acyclic(r.a) && acyclic(r.b), "record references later record");
  }
  for (std::size_t i = 0; i < m.contracted; ++i) {
    structural(down_node[i] < n, "down node out of range");
    // Strictly descending contraction rank — the order that makes the
    // queue-less downward sweep exact; a permuted list would pass every
    // range check and silently corrupt settle_contracted results.
    structural(rank[down_node[i]] != kCoreRank, "core node in sweep");
    structural(i == 0 || rank[down_node[i - 1]] > rank[down_node[i]],
               "down sweep not rank-descending");
  }
  for (std::size_t e = 0; e < m.down_edges; ++e) {
    structural(down_tails[e] < n, "down tail out of range");
    structural(word_ok(down_words[e]), "down word out of range");
  }
  // down_pos must be exactly the inverse of down_node (whose entries are
  // distinct: their ranks strictly descend).
  std::size_t swept = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (down_pos[v] == OverlayGraph::kNoDownPos) continue;
    structural(down_pos[v] < m.contracted && down_node[down_pos[v]] == v,
               "down_pos not the inverse of the sweep order");
    ++swept;
  }
  structural(swept == m.contracted, "down_pos misses swept nodes");

  // The pool: points, metadata and bucket index as built, re-derived and
  // compared before any eval can follow an index out of range.
  TtfPool& pool = ov.ttfs_;
  pool = TtfPool(ov.period_);
  pool.points_ = array<TtfPoint>(kSecPoolPoints, m.points, "pool points");
  pool.meta_ = array<TtfPool::TtfMeta>(kSecPoolMeta, m.funcs, "pool meta");
  pool.bucket_idx_ =
      array<std::uint32_t>(kSecPoolBuckets, m.buckets, "pool buckets");
  if (const char* what = pool.layout_error()) {
    fail(LoadError::Kind::kCorrupt, std::string("overlay: pool ") + what);
  }
  return ov;
}

}  // namespace pconn
