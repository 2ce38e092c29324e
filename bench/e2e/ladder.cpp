#include "ladder.hpp"

#include <functional>
#include <memory>

#include "algo/overlay_query.hpp"
#include "algo/overlay_spcs.hpp"
#include "algo/session.hpp"
#include "graph/td_graph.hpp"
#include "live/live_session.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "timetable/snapshot.hpp"

namespace pconn::e2e {

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr unsigned kTable1Threads[3] = {1, 2, 4};
constexpr const char* kTable1Span[3] = {"table1.t1", "table1.t2", "table1.t4"};
constexpr int kTable1Sources = 3;
constexpr int kKills = 3;

/// The kOk payload a rung's answer implies, so every rung compares bytes.
std::string payload_of(const Query& q, std::uint32_t id, Time arrival,
                       const Profile* profile) {
  ResponseHeader h;
  h.status = Status::kOk;
  h.opcode = q.op;
  h.req_id = id;
  const std::string framed = profile != nullptr
                                 ? encode_profile_response(h, *profile)
                                 : encode_ea_response(h, arrival);
  return framed.substr(kFrameHeaderBytes);
}

struct Loaded {
  Timetable tt;
  OverlayGraph ov;
  std::size_t bytes = 0;
};

}  // namespace

LadderResult run_ladder(const std::string& snapshot, QueryStream& qs, int eas,
                        int profiles, Tracer& tracer) {
  LadderResult out;
  Loaded world = [&] {
    Scoped s(tracer, "timetable", "snapshot_load");
    MappedSnapshot m(snapshot);
    return Loaded{m.load_timetable(), m.load_overlay(), m.file_size()};
  }();
  const Timetable& tt = world.tt;
  const OverlayGraph& ov = world.ov;
  const TdGraph g = TdGraph::build(tt);
  out.snapshot_bytes = world.bytes;
  out.graph_bytes = g.memory_bytes();
  out.overlay_bytes = ov.memory_bytes();
  out.shortcut_points = ov.shortcut_points();

  std::vector<Query> queries;
  for (int i = 0; i < eas; ++i) queries.push_back(qs.next(Opcode::kEarliestArrival));
  for (int i = 0; i < profiles; ++i) queries.push_back(qs.next(Opcode::kProfile));

  // Rung 0: the warm overlay engines, called directly.
  const QuerySessionOptions so;
  QueryWorkspace ws;
  OverlayTimeQuery ea_engine(tt, g, ov, &ws);
  ea_engine.set_relax_options(so.relax_options());
  OverlayParallelSpcs profile_engine(tt, g, ov, so.spcs());
  StationQueryResult profile_buf;
  QueryStats ea_stats, profile_stats;
  bool counting = false;  // work counters come from the timed pass only
  // Rung 1: QuerySession. Rung 2: LiveQuerySession over the snapshot loaded
  // the way a shard loads it.
  QuerySession session(tt, g, so);
  session.overlay_time_engine(ov);
  session.overlay_spcs_engine(ov);
  const std::unique_ptr<LiveOverlay> live = load_snapshot(snapshot);
  LiveQuerySession live_session(*live);
  // Rung 3: in-process server, one worker, one client. Rung 4: one shard.
  ServerOptions sopt;
  sopt.host = kHost;
  sopt.workers = 1;
  QueryServer server(*live, sopt);
  server.start();
  BlockingClient server_client(kHost, server.port(), 30'000.0);
  const std::unique_ptr<ShardSupervisor> fleet =
      start_fleet(snapshot, 1, 1, tracer);
  BlockingClient fleet_client(kHost, fleet->port(), 30'000.0);

  using Answer = std::function<std::string(const Query&, std::uint32_t)>;
  const auto remote = [](BlockingClient& c) -> Answer {
    return [&c](const Query& q, std::uint32_t id) {
      const bool sent =
          c.send_raw(q.op == Opcode::kProfile
                         ? encode_profile(id, q.s, q.t)
                         : encode_earliest_arrival(id, q.s, q.dep, q.t));
      std::optional<std::string> p = sent ? c.recv_frame() : std::nullopt;
      return p ? *p : std::string("lost");
    };
  };
  struct Rung {
    const char* layer;
    const char* ea;
    const char* profile;
    Answer answer;
  };
  const Rung rungs[] = {
      {"algo", "ea_engine", "profile_engine",
       [&](const Query& q, std::uint32_t id) {
         if (q.op == Opcode::kProfile) {
           profile_engine.station_to_station_into(q.s, q.t, profile_buf);
           if (counting) profile_stats += profile_buf.stats;
           return payload_of(q, id, 0, &profile_buf.profile);
         }
         ea_engine.run(q.s, q.dep, q.t);
         if (counting) ea_stats += ea_engine.stats();
         return payload_of(q, id, ea_engine.arrival_at(q.t), nullptr);
       }},
      {"algo", "session_ea", "session_profile",
       [&](const Query& q, std::uint32_t id) {
         if (q.op == Opcode::kProfile) {
           return payload_of(q, id, 0,
                             &session.overlay_station_to_station(q.s, q.t)
                                  .profile);
         }
         return payload_of(
             q, id, session.overlay_earliest_arrival(q.s, q.dep, q.t),
             nullptr);
       }},
      {"live", "session_ea", "session_profile",
       [&](const Query& q, std::uint32_t id) {
         if (q.op == Opcode::kProfile) {
           return payload_of(q, id, 0,
                             &live_session.station_to_station(q.s, q.t)
                                  .profile);
         }
         return payload_of(q, id, live_session.earliest_arrival(q.s, q.dep, q.t),
                           nullptr);
       }},
      {"server", "rtt_ea", "rtt_profile", remote(server_client)},
      {"supervisor", "rtt_ea", "rtt_profile", remote(fleet_client)},
  };

  // Identity first (it doubles as every rung's warm-up): all five rungs
  // must produce the same bytes for every query before anything is timed.
  for (std::size_t i = 0; i < queries.size() && out.identical; ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    const std::string want = rungs[0].answer(queries[i], id);
    for (std::size_t r = 1; r < std::size(rungs); ++r) {
      if (rungs[r].answer(queries[i], id) != want) out.identical = false;
    }
  }

  if (out.identical) {
    counting = true;
    for (const Rung& rung : rungs) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[i];
        const std::uint32_t span = tracer.begin(
            rung.layer, q.op == Opcode::kProfile ? rung.profile : rung.ea, 0,
            i + 1);
        rung.answer(q, static_cast<std::uint32_t>(i + 1));
        tracer.end(span);
      }
    }
    const double ne = std::max(eas, 1), np = std::max(profiles, 1);
    out.ea_settled_mean = static_cast<double>(ea_stats.settled) / ne;
    out.ea_relaxed_mean = static_cast<double>(ea_stats.relaxed) / ne;
    out.ea_stale_pop_ratio =
        static_cast<double>(ea_stats.stale_popped) /
        static_cast<double>(std::max<std::uint64_t>(
            1, ea_stats.settled + ea_stats.stale_popped));
    out.profile_settled_mean = static_cast<double>(profile_stats.settled) / np;
    const double settled = static_cast<double>(
        std::max<std::uint64_t>(1, profile_stats.settled));
    out.profile_self_pruned_ratio =
        static_cast<double>(profile_stats.self_pruned) / settled;
    out.profile_stop_pruned_ratio =
        static_cast<double>(profile_stats.stop_pruned) / settled;
  }
  out.scratch_bytes_end = session.scratch_bytes_reserved();
  out.shard_memory =
      smaps({fleet->shard_pid(0)}).value_or(SmapsRollup{});

  // Paper rung: one-to-all SPCS on the flat graph (Table 1's query).
  std::vector<StationId> sources;
  for (int i = 0; i <= kTable1Sources; ++i) {
    sources.push_back(qs.next(Opcode::kProfile).s);
  }
  for (int k = 0; k < 3; ++k) {
    QuerySession flat(tt, g, QuerySessionOptions{.threads = kTable1Threads[k]});
    (void)flat.one_to_all(sources[0]);  // warm-up: engine and arenas
    std::uint64_t settled = 0;
    for (int i = 1; i <= kTable1Sources; ++i) {
      const std::uint32_t span = tracer.begin("algo", kTable1Span[k]);
      settled += flat.one_to_all(sources[i]).stats.settled;
      tracer.end(span);
    }
    out.table1_settled[k] =
        static_cast<double>(settled) / static_cast<double>(kTable1Sources);
  }

  // Recovery probe: SIGKILL the lone shard and follow it back to health.
  for (int k = 0; k < kKills; ++k) {
    Scoped s(tracer, "supervisor", "recovery");
    out.kills.push_back(kill_and_wait(*fleet, 0));
  }
  out.fleet_stats = fleet->stats();
  fleet->stop();
  server.stop();
  return out;
}

}  // namespace pconn::e2e
