// The persisted format: PCSN snapshots (timetable/snapshot.hpp) — round
// trips, in-place adoption, the typed-error ladder, truncation and
// bit-flip sweeps, atomic republish.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "algo/contraction.hpp"
#include "algo/time_query.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "test_util.hpp"
#include "timetable/snapshot.hpp"
#include "timetable/validation.hpp"
#include "util/fault_injector.hpp"

namespace pconn {
namespace {

// Section tags and OverlayMeta field offsets of the v3 layout
// (timetable/snapshot.cpp), for the tests that corrupt a chosen field.
constexpr std::uint32_t kTagOvMeta = 20;
constexpr std::uint32_t kTagOvHeads = 24;
constexpr std::size_t kOvMetaFuncs = 80;
constexpr std::size_t kOvMetaPoints = 88;

/// A snapshot written to a unique temp file, removed on destruction.
struct SnapshotTempFile {
  SnapshotTempFile(const Timetable& tt, const OverlayGraph* ov) {
    static std::atomic<int> counter{0};
    path = "serialize_snap_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".pcsn";
    save_snapshot(tt, ov, path);
  }
  ~SnapshotTempFile() { std::remove(path.c_str()); }

  std::string read_bytes() const {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  void write_bytes(const std::string& bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path;
};

/// {offset, size} of section `tag` in a snapshot's bytes.
std::pair<std::uint64_t, std::uint64_t> find_section(const std::string& data,
                                                     std::uint32_t tag) {
  std::uint32_t count;
  std::memcpy(&count, data.data() + 16, 4);
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* e = data.data() + 24 + 24 * i;
    std::uint32_t t;
    std::uint64_t off, size;
    std::memcpy(&t, e, 4);
    std::memcpy(&off, e + 8, 8);
    std::memcpy(&size, e + 16, 8);
    if (t == tag) return {off, size};
  }
  ADD_FAILURE() << "no section " << tag;
  return {0, 0};
}

/// End of the last section's payload (trailing alignment padding excluded).
std::size_t payload_end(const std::string& data) {
  std::uint32_t count;
  std::memcpy(&count, data.data() + 16, 4);
  std::size_t end = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t off, size;
    std::memcpy(&off, data.data() + 24 + 24 * i + 8, 8);
    std::memcpy(&size, data.data() + 24 + 24 * i + 16, 8);
    end = std::max<std::size_t>(end, off + size);
  }
  return end;
}

void put_u64(std::string& data, std::size_t at, std::uint64_t v) {
  std::memcpy(data.data() + at, &v, 8);
}

/// Timetable + overlay of a fixture, as a snapshot would be written.
struct World {
  explicit World(Timetable t)
      : tt(std::move(t)), g(TdGraph::build(tt)), ov(contract_graph(tt, g)) {}
  Timetable tt;
  TdGraph g;
  OverlayGraph ov;
};

// ---------------------------------------------------- timetable sections ---

TEST(SerializeTimetable, RoundTripPreservesEverything) {
  for (auto make : {+[] { return test::small_city(91); },
                    +[] { return test::small_railway(92); },
                    +[] { return test::tiny_line(); }}) {
    Timetable tt = make();
    SnapshotTempFile snap(tt, nullptr);
    Timetable back = MappedSnapshot(snap.path).load_timetable();
    ASSERT_EQ(back.num_stations(), tt.num_stations());
    ASSERT_EQ(back.num_trips(), tt.num_trips());
    ASSERT_EQ(back.num_routes(), tt.num_routes());
    ASSERT_EQ(back.num_connections(), tt.num_connections());
    EXPECT_EQ(back.period(), tt.period());
    for (StationId s = 0; s < tt.num_stations(); ++s) {
      EXPECT_EQ(back.station_name(s), tt.station_name(s));
      EXPECT_EQ(back.transfer_time(s), tt.transfer_time(s));
    }
    EXPECT_TRUE(std::ranges::equal(back.connections(), tt.connections()));
    EXPECT_TRUE(validate(back).ok());
  }
}

TEST(SerializeTimetable, BadMagicRejected) {
  SnapshotTempFile snap(test::tiny_line(), nullptr);
  snap.write_bytes("NOPExxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  EXPECT_THROW(MappedSnapshot{snap.path}, std::runtime_error);
}

TEST(SerializeTimetable, TruncationRejected) {
  SnapshotTempFile snap(test::tiny_line(), nullptr);
  const std::string data = snap.read_bytes();
  for (std::size_t cut : {5ul, data.size() / 2, data.size() - 1}) {
    snap.write_bytes(data.substr(0, cut));
    EXPECT_THROW((void)MappedSnapshot(snap.path).load_timetable(),
                 std::runtime_error)
        << cut;
  }
}

TEST(SerializeTimetable, EmptyTimetable) {
  TimetableBuilder b;
  b.add_station("Lonely", 0);
  Timetable tt = b.finalize();
  SnapshotTempFile snap(tt, nullptr);
  Timetable back = MappedSnapshot(snap.path).load_timetable();
  EXPECT_EQ(back.num_stations(), 1u);
  EXPECT_EQ(back.station_name(0), "Lonely");
  EXPECT_EQ(back.num_trips(), 0u);
}

// ------------------------------------------------------ overlay sections ---

TEST(SerializeOverlay, TypedErrorKinds) {
  const World w(test::tiny_line());
  SnapshotTempFile snap(w.tt, &w.ov);
  const std::string data = snap.read_bytes();
  const auto expect_kind = [&](const std::string& bytes, LoadError::Kind kind,
                               const char* what) {
    snap.write_bytes(bytes);
    try {
      MappedSnapshot m(snap.path);
      (void)m.load_overlay();
      ADD_FAILURE() << what << " accepted";
    } catch (const LoadError& e) {
      EXPECT_EQ(e.kind(), kind) << what;
    }
  };
  {
    std::string bad = data;
    std::memcpy(bad.data(), "NOPE", 4);
    expect_kind(bad, LoadError::Kind::kBadMagic, "bad magic");
  }
  {
    std::string bad = data;
    const std::uint32_t v1 = 1;
    std::memcpy(bad.data() + 4, &v1, 4);
    expect_kind(bad, LoadError::Kind::kBadVersion, "a version-1 file");
    // Version 2 still carried the per-node TTF out-degree section.
    const std::uint32_t v2 = 2;
    std::memcpy(bad.data() + 4, &v2, 4);
    expect_kind(bad, LoadError::Kind::kBadVersion, "a version-2 file");
    // Version 3 still carried the pool's index options in the overlay meta.
    const std::uint32_t v3 = 3;
    std::memcpy(bad.data() + 4, &v3, 4);
    expect_kind(bad, LoadError::Kind::kBadVersion, "a version-3 file");
    // Version 4 indexed one bucket per point; its bucket tables would fail
    // the recompute as kCorrupt if the version did not turn it away first.
    const std::uint32_t v4 = 4;
    std::memcpy(bad.data() + 4, &v4, 4);
    expect_kind(bad, LoadError::Kind::kBadVersion, "a version-4 file");
    bad[4] = '\x7f';
    expect_kind(bad, LoadError::Kind::kBadVersion, "an unknown version");
  }
  {  // the pool's function count disagrees with base + shortcut records
    std::string bad = data;
    const std::uint64_t at = find_section(data, kTagOvMeta).first;
    put_u64(bad, at + kOvMetaFuncs, w.ov.ttfs().size() + 1);
    expect_kind(bad, LoadError::Kind::kBadCount, "pool size");
  }
  {  // an edge head past the node range
    std::string bad = data;
    const std::uint64_t at = find_section(data, kTagOvHeads).first;
    const std::uint32_t head = w.ov.num_nodes();
    std::memcpy(bad.data() + at, &head, 4);
    expect_kind(bad, LoadError::Kind::kCorrupt, "edge head");
  }
  // A LoadError still IS a std::runtime_error: pre-existing catch sites
  // keep working.
  snap.write_bytes("NOPE");
  EXPECT_THROW(MappedSnapshot{snap.path}, std::runtime_error);
}

TEST(SerializeOverlay, EveryTruncationPointRejectedCleanly) {
  const World w(test::tiny_line());
  SnapshotTempFile snap(w.tt, &w.ov);
  const std::string data = snap.read_bytes();
  const std::size_t end = payload_end(data);
  ASSERT_GT(end, 64u);
  // Every prefix must fail with a typed LoadError — never crash, never
  // return a partially-adopted overlay. Each prefix records its own length
  // as the file size, so the rejection has to come from the section table
  // and the section bounds, not from the size check. Sweep densely at the
  // front (header + table) and stride through the payload; past its end
  // only alignment padding is cut, which leaves every section whole.
  for (std::size_t cut = 0; cut < end; cut += (cut < 256 ? 1 : 97)) {
    std::string prefix = data.substr(0, cut);
    if (cut >= 16) put_u64(prefix, 8, cut);
    snap.write_bytes(prefix);
    try {
      MappedSnapshot m(snap.path);
      (void)m.load_timetable();
      if (m.has_overlay()) (void)m.load_overlay();
      FAIL() << "accepted a prefix of " << cut << " bytes";
    } catch (const LoadError&) {
      // expected
    }
  }
}

TEST(SerializeOverlay, LyingSectionCountFailsBeforeAllocating) {
  const World w(test::tiny_line());
  SnapshotTempFile snap(w.tt, &w.ov);
  std::string data = snap.read_bytes();
  // Claim 2^27 pool points in the overlay meta: the points section's size
  // must be checked against the count before anything is sized from it,
  // so this fails instantly with a count error.
  put_u64(data, find_section(data, kTagOvMeta).first + kOvMetaPoints,
          std::uint64_t{1} << 27);
  snap.write_bytes(data);
  try {
    (void)MappedSnapshot(snap.path).load_overlay();
    FAIL() << "lying count accepted";
  } catch (const LoadError& e) {
    EXPECT_EQ(e.kind(), LoadError::Kind::kBadCount);
  }
}

TEST(SerializeOverlay, BitFlipSweepNeverCrashes) {
  const World w(test::tiny_line());
  SnapshotTempFile snap(w.tt, &w.ov);
  const std::string data = snap.read_bytes();
  // Flip one bit at a stride of offsets across the whole file. Each load
  // must either throw a typed LoadError or produce a structurally valid
  // overlay (flips inside TTF durations can survive every structural
  // check — they change answers, not validity). What must never happen:
  // a crash, a sanitizer report, or an uncaught foreign exception. A
  // surviving overlay also runs a query, so every array it adopted is
  // read in place.
  std::size_t rejected = 0, survived = 0;
  for (std::size_t byte = 0; byte < data.size();
       byte += (byte < 128 ? 1 : 41)) {
    for (const unsigned bit : {0u, 7u}) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1u << bit));
      snap.write_bytes(flipped);
      std::optional<OverlayGraph> back;
      try {
        back = MappedSnapshot(snap.path).load_overlay();
        ++survived;
        EXPECT_EQ(back->num_nodes(), w.ov.num_nodes());
      } catch (const LoadError&) {
        ++rejected;
        continue;
      }
      // Binding re-checks the counts against the graph (a flipped base
      // edge count passes the file's own checks and fails here, loudly).
      std::optional<TimeQuery> q;
      try {
        q.emplace(w.tt, w.g, *back);
      } catch (const std::runtime_error&) {
        continue;
      }
      q->run(0, 8 * 3600);
      q->settle_contracted();
    }
  }
  // The sweep must have exercised both outcomes (sanity: the corruption
  // detection is neither vacuous nor absolute).
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(survived, 0u);
}

// ------------------------------------------------ whole-file snapshots ---

TEST(Snapshot, RoundTripBitExactAgainstInMemoryBuild) {
  std::vector<Timetable> nets = {test::tiny_line(), test::small_city(95)};
  for (const gen::Preset p : gen::kAllPresets) {
    nets.push_back(gen::make_preset(p, 0.05));
  }
  for (const Timetable& tt : nets) {
    const World w(tt);
    SnapshotTempFile snap(w.tt, &w.ov);

    MappedSnapshot mapped(snap.path);
    ASSERT_TRUE(mapped.has_overlay());
    const Timetable tt_back = mapped.load_timetable();
    const OverlayGraph ov_back = mapped.load_overlay();
    EXPECT_TRUE(validate(tt_back).ok());

    // Bit-exactness: the adopted timetable and overlay must re-save to
    // exactly the bytes of the in-memory original — adoption lost and
    // invented nothing.
    SnapshotTempFile again(tt_back, &ov_back);
    EXPECT_EQ(snap.read_bytes(), again.read_bytes())
        << tt.num_stations() << " stations";
  }
}

TEST(Snapshot, AdoptedArraysAliasTheMappingAndOutliveIt) {
  const World w(test::small_city(96));
  std::optional<SnapshotTempFile> snap(std::in_place, w.tt, &w.ov);
  std::optional<Timetable> tt;
  std::optional<OverlayGraph> ov;
  // The arrays keep the mapping alive, so its address range stays valid
  // after the MappedSnapshot is gone.
  std::span<const char> file;
  const auto inside = [&](std::span<const std::byte> a) {
    const auto* lo = reinterpret_cast<const std::byte*>(file.data());
    return a.data() >= lo && a.data() + a.size() <= lo + file.size();
  };
  {
    MappedSnapshot mapped(snap->path);
    tt = mapped.load_timetable();
    ov = mapped.load_overlay();
    file = mapped.bytes();
    std::size_t arrays = 0;
    for (const auto& a : tt->array_bytes()) {
      if (a.empty()) continue;
      EXPECT_TRUE(inside(a)) << "timetable array " << arrays;
      ++arrays;
    }
    for (const auto& a : ov->array_bytes()) {
      if (a.empty()) continue;
      EXPECT_TRUE(inside(a)) << "overlay array " << arrays;
      ++arrays;
    }
    EXPECT_EQ(arrays, 13u + 15u);
  }
  // The MappedSnapshot is gone and the file unlinked; the arrays keep the
  // mapping alive. A live overlay over them answers byte-identically to
  // one over the in-memory build.
  snap.reset();
  LiveOverlay adopted(*tt, *ov);
  LiveOverlay built(w.tt, w.ov);
  // The adopted graph allocates no pool: its pool arrays are the overlay
  // pool's base prefix, in place in the mapping.
  const auto epoch0 = adopted.snapshot();
  const auto graph_pool = epoch0->graph->ttfs().array_bytes();
  const auto overlay_pool = epoch0->overlay->ttfs().array_bytes();
  ASSERT_EQ(epoch0->graph->ttfs().size(), epoch0->overlay->num_base_ttfs());
  ASSERT_EQ(graph_pool.size(), overlay_pool.size());
  for (std::size_t i = 0; i < graph_pool.size(); ++i) {
    ASSERT_FALSE(graph_pool[i].empty()) << "graph pool array " << i;
    EXPECT_TRUE(inside(graph_pool[i])) << "graph pool array " << i;
    EXPECT_EQ(graph_pool[i].data(), overlay_pool[i].data()) << "array " << i;
    EXPECT_LE(graph_pool[i].size(), overlay_pool[i].size()) << "array " << i;
  }
  LiveQuerySession a(adopted), b(built);
  Rng rng(97);
  for (int i = 0; i < 24; ++i) {
    const auto s = static_cast<StationId>(rng.next_below(w.tt.num_stations()));
    const auto t = static_cast<StationId>(rng.next_below(w.tt.num_stations()));
    const auto dep = static_cast<Time>(rng.next_below(w.tt.period()));
    EXPECT_EQ(a.earliest_arrival(s, dep, t), b.earliest_arrival(s, dep, t));
    if (i % 4 == 0) {
      EXPECT_EQ(a.station_to_station(s, t).profile,
                b.station_to_station(s, t).profile);
    }
  }
}

// A snapshot whose overlay was contracted from another epoch of the same
// timetable has every count right; only its base functions disagree with
// the timetable it ships with. Adoption recomputes them and refuses it.
TEST(Snapshot, OverlayFromAnotherTimetableIsRejectedAtAdoption) {
  const Timetable tt = gen::make_preset(gen::Preset::kOahuLike, 0.3);
  const Timetable delayed = apply_event(
      apply_event(tt, DelayEvent::delayed(0, 0, 240)),
      DelayEvent::delayed(static_cast<TrainId>(tt.num_trips() / 2), 0, 420));
  const TdGraph g = TdGraph::build(tt);
  const TdGraph g_delayed = TdGraph::build(delayed);
  const OverlayGraph ov_delayed = contract_graph(delayed, g_delayed);
  // Precondition: the counts match, so only the functions can tell.
  ASSERT_EQ(ov_delayed.num_nodes(), g.num_nodes());
  ASSERT_EQ(ov_delayed.num_base_edges(), g.num_edges());
  ASSERT_EQ(ov_delayed.num_base_ttfs(), g.ttfs().size());
  bool differs = false;
  for (std::uint32_t f = 0; f < g.ttfs().size() && !differs; ++f) {
    differs = !std::ranges::equal(g.ttfs().points(f),
                                  g_delayed.ttfs().points(f));
  }
  ASSERT_TRUE(differs);

  SnapshotTempFile snap(tt, &ov_delayed);
  MappedSnapshot mapped(snap.path);
  try {
    LiveOverlay live(mapped.load_timetable(), mapped.load_overlay());
    FAIL() << "adopted an overlay contracted from another timetable";
  } catch (const LoadError& e) {
    EXPECT_EQ(e.kind(), LoadError::Kind::kCorrupt) << e.what();
  }
  // The matching pair is still adopted.
  const OverlayGraph ov = contract_graph(tt, g);
  SnapshotTempFile good(tt, &ov);
  MappedSnapshot good_map(good.path);
  EXPECT_NO_THROW(LiveOverlay(good_map.load_timetable(), good_map.load_overlay()));
}

TEST(Snapshot, RepublishIsAtomicAndLeavesAdoptedObjectsServing) {
  const World first(test::small_city(98));
  const World second(test::small_railway(99));
  SnapshotTempFile snap(first.tt, &first.ov);
  MappedSnapshot old_map(snap.path);
  LiveOverlay old_live(old_map.load_timetable(), old_map.load_overlay());
  LiveQuerySession old_session(old_live);

  struct Case {
    StationId s, t;
    Time dep, arr;
  };
  std::vector<Case> cases;
  Rng rng(100);
  for (int i = 0; i < 32; ++i) {
    Case c;
    c.s = static_cast<StationId>(rng.next_below(first.tt.num_stations()));
    c.t = static_cast<StationId>(rng.next_below(first.tt.num_stations()));
    c.dep = static_cast<Time>(rng.next_below(first.tt.period()));
    c.arr = old_session.earliest_arrival(c.s, c.dep, c.t);
    cases.push_back(c);
  }

  // Re-save a different network to the same path: a new file is renamed
  // over the old one, which the live mapping keeps reading unchanged.
  save_snapshot(second.tt, &second.ov, snap.path);
  EXPECT_FALSE(std::ifstream(snap.path + ".tmp." + std::to_string(::getpid())))
      << "temporary file left behind";
  for (const Case& c : cases) {
    EXPECT_EQ(old_session.earliest_arrival(c.s, c.dep, c.t), c.arr);
  }

  MappedSnapshot new_map(snap.path);
  const Timetable tt = new_map.load_timetable();
  EXPECT_EQ(tt.num_stations(), second.tt.num_stations());
  EXPECT_EQ(tt.num_connections(), second.tt.num_connections());
  LiveOverlay new_live(tt, new_map.load_overlay());
  LiveOverlay built(second.tt, second.ov);
  LiveQuerySession fresh(new_live), reference(built);
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    const auto t = static_cast<StationId>(rng.next_below(tt.num_stations()));
    const auto dep = static_cast<Time>(rng.next_below(tt.period()));
    EXPECT_EQ(fresh.earliest_arrival(s, dep, t),
              reference.earliest_arrival(s, dep, t));
  }
}

TEST(Snapshot, WithoutOverlaySection) {
  const Timetable tt = test::tiny_line();
  SnapshotTempFile snap(tt, nullptr);
  MappedSnapshot mapped(snap.path);
  EXPECT_FALSE(mapped.has_overlay());
  EXPECT_TRUE(validate(mapped.load_timetable()).ok());
  EXPECT_THROW((void)mapped.load_overlay(), std::logic_error);
}

TEST(Snapshot, TypedErrorKinds) {
  const Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  SnapshotTempFile snap(tt, &ov);
  const std::string data = snap.read_bytes();

  {  // file that cannot be opened
    try {
      MappedSnapshot missing("no_such_snapshot_file.pcsn");
      FAIL() << "missing file accepted";
    } catch (const LoadError& e) {
      EXPECT_EQ(e.kind(), LoadError::Kind::kMissingFile);
    }
  }
  {  // wrong magic
    std::string bad = data;
    bad[0] = 'X';
    snap.write_bytes(bad);
    try {
      MappedSnapshot m(snap.path);
      FAIL() << "bad magic accepted";
    } catch (const LoadError& e) {
      EXPECT_EQ(e.kind(), LoadError::Kind::kBadMagic);
    }
  }
  {  // version this build does not read (u32 at offset 4)
    std::string bad = data;
    bad[4] = '\x7f';
    snap.write_bytes(bad);
    try {
      MappedSnapshot m(snap.path);
      FAIL() << "bad version accepted";
    } catch (const LoadError& e) {
      EXPECT_EQ(e.kind(), LoadError::Kind::kBadVersion);
    }
  }
}

TEST(Snapshot, FaultSiteForcesMapFailure) {
  const Timetable tt = test::tiny_line();
  SnapshotTempFile snap(tt, nullptr);
  FaultInjector faults;
  faults.arm(FaultInjector::Site::kSnapshotMap, 0);
  EXPECT_THROW(MappedSnapshot(snap.path, &faults), InjectedFault);
  // Single-shot: the next open of the same valid file succeeds (the
  // shard-restart path after a transient map failure).
  MappedSnapshot m(snap.path, &faults);
  EXPECT_TRUE(validate(m.load_timetable()).ok());
}

TEST(Snapshot, EveryTruncationPointRejectedCleanly) {
  const Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  SnapshotTempFile snap(tt, &ov);
  const std::string data = snap.read_bytes();
  ASSERT_GT(data.size(), 128u);

  // The header records the file size, so EVERY strict prefix must be
  // rejected at map time with a typed LoadError — never a crash, never a
  // partially-adopted timetable. Dense at the front, strided after.
  for (std::size_t cut = 0; cut < data.size();
       cut += (cut < 256 ? 1 : 113)) {
    snap.write_bytes(data.substr(0, cut));
    try {
      MappedSnapshot m(snap.path);
      (void)m.load_timetable();
      if (m.has_overlay()) (void)m.load_overlay();
      FAIL() << "accepted a prefix of " << cut << " bytes";
    } catch (const LoadError&) {
      // expected
    }
  }
}

TEST(Snapshot, BitFlipSweepValidOrThrown) {
  const Timetable tt = test::tiny_line();
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g);
  SnapshotTempFile snap(tt, &ov);
  const std::string data = snap.read_bytes();

  // Flip one bit across the file. Each load must either throw a typed
  // LoadError or produce structures that pass full validation — flips in
  // padding or name bytes can survive; nothing may crash or adopt
  // inconsistent arrays. (This is the supervisor's restart guarantee: a
  // corrupt snapshot becomes a typed config-fatal exit, not a shard that
  // serves garbage.)
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < data.size();
       byte += (byte < 128 ? 1 : 37)) {
    for (const unsigned bit : {0u, 6u}) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1u << bit));
      snap.write_bytes(flipped);
      try {
        MappedSnapshot m(snap.path);
        const Timetable back = m.load_timetable();
        EXPECT_TRUE(validate(back).ok()) << "byte " << byte;
        if (m.has_overlay()) {
          const OverlayGraph ov_back = m.load_overlay();
          EXPECT_EQ(ov_back.num_nodes(), ov.num_nodes());
        }
      } catch (const LoadError&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace pconn
