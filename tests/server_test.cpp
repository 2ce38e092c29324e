// Serving front-end correctness (src/server/, docs/server.md):
//  * responses byte-identical to direct LiveQuerySession calls, binary and
//    text mode, across epochs and while degraded;
//  * every rung of the resilience ladder answers a typed Status and leaves
//    the server alive — malformed frames (structured cases plus a fuzz
//    sweep), invalid stations, forced queue overflow + Retry-After,
//    deadline expiry in-queue and post-execution, worker faults, transient
//    accept failures, slow-client output caps, idle reaping;
//  * drain: in-flight work finishes, late requests get kShuttingDown or a
//    clean close, SIGTERM-installed drain shuts the listener;
//  * plan_admission() math, a started server's plan equal to one sized by
//    a far-target probe (every preset, and a station 0 without
//    departures), and that plan bounding a session's scratch after the
//    busiest station and a mix of narrow and wide sources (every preset).
#include <gtest/gtest.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "connection_scan.hpp"
#include "live/delay_feed.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

constexpr const char* kHost = "127.0.0.1";

ServerOptions fast_opts() {
  ServerOptions o;
  o.host = kHost;
  o.port = 0;  // ephemeral
  o.workers = 1;
  return o;
}

/// Expected wire payload (length prefix stripped) of a direct-session
/// answer, encoded through the same protocol functions the server uses.
std::string strip_frame(std::string framed) { return framed.substr(4); }

}  // namespace

TEST(ServerProtocol, AdmissionPlanMath) {
  // Worker scratch comes off the top; the rest splits evenly between
  // queue slots and connections, floored at 4 and capped at 4096.
  const std::size_t kReq = 64 + (std::size_t{16} << 10);
  const std::size_t kConn = (std::size_t{64} << 10) + (std::size_t{16} << 10);
  AdmissionPlan p = plan_admission(std::size_t{64} << 20, 2,
                                   std::size_t{4} << 20, std::size_t{64}
                                                             << 10);
  const std::size_t remaining = (std::size_t{64} << 20) -
                                2 * (std::size_t{4} << 20);
  EXPECT_EQ(p.per_worker_scratch_bytes, std::size_t{4} << 20);
  EXPECT_EQ(p.queue_capacity, remaining / 2 / kReq);
  EXPECT_EQ(p.max_connections, remaining / 2 / kConn);

  // Scratch exceeding the budget still yields a usable (floor) plan.
  p = plan_admission(1 << 20, 4, 1 << 20, std::size_t{64} << 10);
  EXPECT_EQ(p.queue_capacity, 4u);
  EXPECT_EQ(p.max_connections, 4u);

  // A huge budget is capped — the queue must stay bounded regardless.
  p = plan_admission(std::size_t{1} << 40, 1, 0, std::size_t{64} << 10);
  EXPECT_EQ(p.queue_capacity, 4096u);
  EXPECT_EQ(p.max_connections, 4096u);
}

/// The plan a server sized from a probe session that searches from station
/// 0 all the way to station n - 1: the long probe the server replaced.
AdmissionPlan far_target_plan(const LiveOverlay& live,
                              const ServerOptions& o) {
  LiveQuerySession probe(live);
  const auto n = static_cast<StationId>(probe.pinned().tt->num_stations());
  (void)probe.earliest_arrival(0, 0, n - 1);
  (void)probe.station_to_station(0, n - 1);
  return plan_admission(o.memory_budget_bytes, o.workers,
                        probe.session().scratch_bytes_reserved(),
                        o.max_request_bytes);
}

void expect_same_plan(const AdmissionPlan& got, const AdmissionPlan& want) {
  EXPECT_EQ(got.per_worker_scratch_bytes, want.per_worker_scratch_bytes);
  EXPECT_EQ(got.per_request_bytes, want.per_request_bytes);
  EXPECT_EQ(got.per_connection_bytes, want.per_connection_bytes);
  EXPECT_EQ(got.queue_capacity, want.queue_capacity);
  EXPECT_EQ(got.max_connections, want.max_connections);
}

TEST(ServerAdmission, PlanEqualsAFarTargetProbeOnEveryPreset) {
  for (const gen::Preset p : gen::kAllPresets) {
    SCOPED_TRACE(gen::preset_name(p));
    LiveOverlay live(gen::make_preset(p, 0.3));
    ServerOptions o = fast_opts();
    o.workers = 2;
    QueryServer server(live, o);
    server.start();
    const AdmissionPlan got = server.admission();
    server.stop();
    EXPECT_GT(got.per_worker_scratch_bytes, 0u);
    expect_same_plan(got, far_target_plan(live, o));
  }
}

TEST(ServerAdmission, PlanEqualsAFarTargetProbeWhenStationZeroHasNoDeparture) {
  // Station 0 is only ever arrived at: its profile search has no
  // connection to start from, whatever the target.
  TimetableBuilder b;
  const StationId sink = b.add_station("sink", 60);
  const StationId a = b.add_station("A", 60);
  const StationId c = b.add_station("C", 60);
  using St = TimetableBuilder::StopTime;
  for (Time t = 8 * 3600; t <= 10 * 3600; t += 1800) {
    b.add_trip(std::vector<St>{{a, t, t}, {c, t + 600, t + 660},
                               {sink, t + 1200, t + 1200}});
    b.add_trip(std::vector<St>{{c, t, t}, {a, t + 600, t + 600}});
  }
  LiveOverlay live(b.finalize());
  ASSERT_EQ(sink, 0u);
  ASSERT_TRUE(live.snapshot()->tt->outgoing(sink).empty());
  QueryServer server(live, fast_opts());
  server.start();
  const AdmissionPlan got = server.admission();
  // The fallback probe leaves a server that answers.
  BlockingClient client(kHost, server.port(), 5'000.0);
  ASSERT_TRUE(client.send_raw(encode_earliest_arrival(1, a, 8 * 3600, sink)));
  ASSERT_TRUE(client.recv_frame().has_value());
  server.stop();
  expect_same_plan(got, far_target_plan(live, fast_opts()));
}

TEST(ServerAdmission, PlanBoundsAWorkersScratchOnEveryPreset) {
  // The plan's per-worker figure is an upper bound, not a sample: profile
  // searches run in kSpcsChunk-wide chunks, so no source — not even the
  // busiest station — grows a session past what the probe reserved.
  for (const gen::Preset p : gen::kAllPresets) {
    SCOPED_TRACE(gen::preset_name(p));
    LiveOverlay live(gen::make_preset(p, 0.3));
    QueryServer server(live, fast_opts());
    server.start();
    const std::size_t plan = server.admission().per_worker_scratch_bytes;
    server.stop();

    LiveQuerySession session(live);
    const Timetable& tt = *session.pinned().tt;
    const auto n = static_cast<StationId>(tt.num_stations());
    const StationId busiest = test::busiest_station(tt);
    ASSERT_GT(tt.outgoing(busiest).size(), 2 * kSpcsChunk);
    (void)session.station_to_station(busiest, n - 1);
    EXPECT_LE(session.session().scratch_bytes_reserved(), plan)
        << "busiest station " << busiest;

    // Alternate sources from the narrower and the wider half of stations.
    std::vector<StationId> by_width(n);
    for (StationId s = 0; s < n; ++s) by_width[s] = s;
    std::sort(by_width.begin(), by_width.end(), [&](StationId a, StationId b) {
      return tt.outgoing(a).size() < tt.outgoing(b).size();
    });
    Rng rng(900 + static_cast<std::uint64_t>(p));
    for (int i = 0; i < 24; ++i) {
      const std::size_t half = n / 2;
      const StationId s =
          by_width[(i % 2 == 0 ? 0 : half) + rng.next_below(half)];
      const auto t = static_cast<StationId>(rng.next_below(n));
      (void)session.station_to_station(s, t);
      (void)session.earliest_arrival(
          s, static_cast<Time>(rng.next_below(tt.period())), t);
    }
    EXPECT_LE(session.session().scratch_bytes_reserved(), plan);
  }
}

TEST(Server, BinaryResponsesByteIdenticalToDirectSession) {
  const Timetable tt = test::tiny_line();
  const test::ConnectionScan scan(tt);
  LiveOverlay live(tt);
  QueryServer server(live, fast_opts());
  server.start();
  LiveQuerySession direct(live);
  BlockingClient client(kHost, server.port());

  const Time deps[] = {0, 8 * 3600, 20 * 3600};
  std::uint32_t req_id = 100;
  for (StationId s = 0; s < 3; ++s) {
    for (StationId t = 0; t < 3; ++t) {
      if (s == t) continue;
      for (const Time dep : deps) {
        ++req_id;
        const Time arr = direct.earliest_arrival(s, dep, t);
        // The session's answer is the ground truth's too.
        EXPECT_EQ(arr, scan.earliest_arrivals(s, dep, t)[t])
            << "ea " << s << "->" << t << " @" << dep;
        ResponseHeader h;
        h.status = Status::kOk;
        h.opcode = Opcode::kEarliestArrival;
        h.req_id = req_id;
        h.epoch = direct.epoch();
        h.degraded = direct.serving_degraded();
        ASSERT_TRUE(
            client.send_raw(encode_earliest_arrival(req_id, s, dep, t)));
        auto payload = client.recv_frame();
        ASSERT_TRUE(payload.has_value());
        EXPECT_EQ(*payload, strip_frame(encode_ea_response(h, arr)))
            << "ea " << s << "->" << t << " @" << dep;
      }
      ++req_id;
      const StationQueryResult& res = direct.station_to_station(s, t);
      for (const Time dep : deps) {
        EXPECT_EQ(eval_profile(res.profile, dep, tt.period()),
                  scan.earliest_arrivals(s, dep, t)[t])
            << "profile " << s << "->" << t << " @" << dep;
      }
      ResponseHeader h;
      h.status = Status::kOk;
      h.opcode = Opcode::kProfile;
      h.req_id = req_id;
      h.epoch = direct.epoch();
      h.degraded = direct.serving_degraded();
      ASSERT_TRUE(client.send_raw(encode_profile(req_id, s, t)));
      auto payload = client.recv_frame();
      ASSERT_TRUE(payload.has_value());
      EXPECT_EQ(*payload, strip_frame(encode_profile_response(h, res.profile)))
          << "profile " << s << "->" << t;
    }
  }
  server.stop();
}

TEST(Server, AcceptedLatencyHistogramCountsOnlyAnsweredWork) {
  // Answered requests land in the server-side latency histogram
  // (bench_server's overload gate reads it); shed and deadline-expired
  // work must not — those latencies are not something a client ever saw
  // an answer for.
  LiveOverlay live(test::tiny_line());
  {
    QueryServer server(live, fast_opts());
    server.start();
    BlockingClient client(kHost, server.port());
    constexpr std::uint64_t kN = 32;
    for (std::uint64_t i = 0; i < kN; ++i) {
      auto r = client.earliest_arrival(0, 8 * 3600, 2);
      ASSERT_TRUE(r.has_value());
      ASSERT_EQ(r->header.status, Status::kOk);
    }
    const std::vector<std::uint64_t> hist = server.accepted_latency_hist();
    std::uint64_t total = 0;
    for (const std::uint64_t b : hist) total += b;
    EXPECT_EQ(total, kN);
    EXPECT_EQ(server.stats().requests_ok, kN);
    server.stop();
  }
  {
    ServerOptions opt = fast_opts();
    opt.request_deadline_ms = 0.0;  // everything expires in the queue
    QueryServer server(live, opt);
    server.start();
    BlockingClient client(kHost, server.port());
    auto r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kDeadlineExceeded);
    const std::vector<std::uint64_t> hist = server.accepted_latency_hist();
    std::uint64_t total = 0;
    for (const std::uint64_t b : hist) total += b;
    EXPECT_EQ(total, 0u);
    server.stop();
  }
}

TEST(Server, TextModeServesSameAnswers) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  LiveQuerySession direct(live);
  BlockingClient client(kHost, server.port());
  ASSERT_TRUE(client.text_hello());

  EXPECT_EQ(client.text_command("ping").value_or("?"), "ok pong");

  const Time arr = direct.earliest_arrival(0, 8 * 3600, 2);
  EXPECT_EQ(client.text_command("ea 0 28800 2").value_or("?"),
            "ok " + std::to_string(arr));

  const StationQueryResult& res = direct.station_to_station(0, 2);
  std::string want = "ok " + std::to_string(res.profile.size());
  for (const ProfilePoint& p : res.profile) {
    want += ' ' + std::to_string(p.dep) + ':' + std::to_string(p.arr);
  }
  EXPECT_EQ(client.text_command("profile 0 2").value_or("?"), want);

  const std::string stats = client.text_command("stats").value_or("?");
  EXPECT_EQ(stats.substr(0, 6), "ok ok=");

  // Malformed text answers an error and KEEPS the connection.
  EXPECT_EQ(client.text_command("frobnicate").value_or("?"),
            "err malformed");
  EXPECT_EQ(client.text_command("ea 1 2").value_or("?"), "err malformed");
  EXPECT_EQ(client.text_command("ea a b c").value_or("?"), "err malformed");
  EXPECT_EQ(client.text_command("ping").value_or("?"), "ok pong");
  server.stop();
}

TEST(Server, MalformedBinaryFramesAreTypedAndClose) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();

  struct Case {
    std::string name;
    std::string bytes;
  };
  std::vector<Case> cases;
  {
    std::string huge;  // declared length way past the frame cap
    put_u32(huge, 0xffffffffu);
    cases.push_back({"huge-length", huge});
    std::string zero;  // below the opcode+req_id minimum
    put_u32(zero, 0);
    cases.push_back({"zero-length", zero});
    std::string op = encode_ping(7);
    op[4] = 0x7f;  // unknown opcode
    cases.push_back({"bad-opcode", op});
    // Right opcode, wrong argument length: a ping frame claiming EA.
    std::string wrong = encode_ping(8);
    wrong[4] = static_cast<char>(Opcode::kEarliestArrival);
    cases.push_back({"wrong-arg-length", wrong});
  }
  for (const Case& c : cases) {
    BlockingClient client(kHost, server.port(), 2000.0);
    ASSERT_TRUE(client.send_raw(c.bytes)) << c.name;
    auto payload = client.recv_frame();
    ASSERT_TRUE(payload.has_value()) << c.name;
    auto r = decode_response(payload->data(), payload->size());
    ASSERT_TRUE(r.has_value()) << c.name;
    EXPECT_EQ(r->header.status, Status::kMalformed) << c.name;
    // Binary framing is lost after a malformed frame: connection closes.
    EXPECT_FALSE(client.recv_frame().has_value()) << c.name;
  }
  // The server itself is unharmed.
  BlockingClient fresh(kHost, server.port());
  ASSERT_TRUE(fresh.ping().has_value());
  EXPECT_GE(server.stats().requests_malformed, cases.size());
  server.stop();
}

TEST(Server, FuzzSweepNeverCrashes) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();

  Rng rng(20260808);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 1 + rng.next_u64() % 64;
    std::string blob(len, '\0');
    for (char& b : blob) {
      b = static_cast<char>(rng.next_u64() & 0xff);
    }
    BlockingClient client(kHost, server.port(), 100.0);
    client.send_raw(blob);
    // Whatever the blob decoded to — a malformed reject, a valid tiny
    // request, or a partial frame the server is still waiting on — the
    // read either returns a frame or times out; it never hangs the server.
    (void)client.recv_frame();
  }
  BlockingClient fresh(kHost, server.port());
  ASSERT_TRUE(fresh.ping().has_value());
  server.stop();
}

TEST(Server, InvalidStationIsTypedBadRequest) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  BlockingClient client(kHost, server.port());

  auto r = client.earliest_arrival(999, 0, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kBadRequest);
  r = client.profile(0, 12345);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kBadRequest);
  // The connection survives a bad request.
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().requests_bad, 2u);
  server.stop();
}

TEST(Server, ForcedQueueOverflowShedsWithRetryAfter) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.faults = &faults;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port());

  faults.arm(FaultInjector::Site::kQueueOverflow);
  auto r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOverloaded);
  EXPECT_GE(r->retry_after_ms, 1u);
  // Backpressure is per-request, not per-connection: the next one runs.
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().requests_shed, 1u);
  server.stop();
}

TEST(Server, PipelinedFloodGetsOnlyTypedAnswers) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.queue_capacity = 4;  // tiny queue: the flood must shed, not grow
  opt.request_deadline_ms = 10'000.0;  // statuses must be ok/shed only
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port());

  constexpr int kBurst = 100;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += encode_earliest_arrival(static_cast<std::uint32_t>(i), 0,
                                     8 * 3600, 2);
  }
  ASSERT_TRUE(client.send_raw(burst));
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto payload = client.recv_frame();
    ASSERT_TRUE(payload.has_value()) << "response " << i;
    auto r = decode_response(payload->data(), payload->size());
    ASSERT_TRUE(r.has_value());
    if (r->header.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r->header.status, Status::kOverloaded);
      EXPECT_GE(r->retry_after_ms, 1u);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests_ok, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.requests_shed, static_cast<std::uint64_t>(shed));
  server.stop();
}

TEST(Server, WorkerFaultAnswersInternalAndServerSurvives) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.faults = &faults;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port());

  faults.arm(FaultInjector::Site::kServerWorker);
  auto r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kInternal);
  // Same worker, same connection: the fault poisoned nothing.
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().requests_internal, 1u);
  server.stop();
}

TEST(Server, DeadlineExpiryIsTypedInQueueAndPostExecution) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());

  {
    // In-queue expiry: a zero deadline ages out before the worker runs,
    // and the request is answered WITHOUT being executed.
    ServerOptions opt = fast_opts();
    opt.request_deadline_ms = 0.0;
    QueryServer server(live, opt);
    server.start();
    BlockingClient client(kHost, server.port());
    auto r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kDeadlineExceeded);
    EXPECT_EQ(server.stats().requests_deadline, 1u);
    EXPECT_EQ(server.stats().requests_ok, 0u);
    server.stop();
  }
  {
    // Post-execution overrun (forced): the query ran but its answer is
    // replaced by the typed error — the client already gave up.
    ServerOptions opt = fast_opts();
    opt.faults = &faults;
    QueryServer server(live, opt);
    server.start();
    BlockingClient client(kHost, server.port());
    faults.arm(FaultInjector::Site::kWorkerDeadline);
    auto r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kDeadlineExceeded);
    r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kOk);
    server.stop();
  }
}

TEST(Server, AcceptFaultIsTransient) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.faults = &faults;
  QueryServer server(live, opt);
  server.start();

  faults.arm(FaultInjector::Site::kAccept);
  // The connect itself succeeds (TCP backlog); the server's first
  // accept_ready() trips the fault, the next epoll tick accepts us.
  BlockingClient client(kHost, server.port());
  auto r = client.ping();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().accept_failures, 1u);
  server.stop();
}

TEST(Server, DegradedEpochServedFlatAndFlagged) {
  FaultInjector faults;
  LiveOverlayOptions lopt;
  lopt.faults = &faults;
  lopt.relink.faults = &faults;
  LiveOverlay live(test::tiny_line(), lopt);
  QueryServer server(live, fast_opts());
  server.start();
  BlockingClient client(kHost, server.port());

  auto r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.epoch, 0u);
  EXPECT_FALSE(r->header.degraded);
  const Time healthy_arr = r->arrival;

  // Degrade mid-serving: the relink faults, the new epoch has no overlay.
  faults.arm(FaultInjector::Site::kRelinkShortcut);
  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 1, 300)).status,
            ApplyStatus::kDegraded);
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(r->header.epoch, 1u);
  EXPECT_TRUE(r->header.degraded);
  // Degraded serving is exact: agree with a direct flat-serving session.
  LiveQuerySession direct(live);
  EXPECT_EQ(r->arrival, direct.earliest_arrival(0, 8 * 3600, 2));
  EXPECT_GE(server.stats().degraded_served, 1u);

  // Recovery: same answers, overlay-routed again, flag drops.
  ASSERT_EQ(live.retry().status, ApplyStatus::kRecontracted);
  auto r2 = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->header.epoch, 2u);
  EXPECT_FALSE(r2->header.degraded);
  EXPECT_EQ(r2->arrival, r->arrival);
  (void)healthy_arr;  // the delay may legitimately change the answer
  server.stop();
}

TEST(Server, SlowClientOutputCapCloses) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.max_out_buf_bytes = 8;  // smaller than any single response frame
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port(), 2000.0);
  ASSERT_TRUE(client.send_raw(encode_ping(1)));
  // The response would breach the buffer budget: the connection closes
  // instead of the server holding unbounded output.
  EXPECT_FALSE(client.recv_frame().has_value());
  EXPECT_EQ(server.stats().slow_clients_closed, 1u);
  server.stop();
}

TEST(Server, IdleConnectionsAreReaped) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.idle_timeout_ms = 50.0;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port(), 3000.0);
  ASSERT_TRUE(client.ping().has_value());
  // Quiet past the idle deadline: the server closes us (client sees EOF).
  EXPECT_FALSE(client.recv_frame().has_value());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(server.stats().idle_reaped, 1u);
  server.stop();
}

TEST(Server, DrainFinishesInFlightAndAnswersLateRequestsTyped) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.queue_capacity = 8;
  opt.request_deadline_ms = 10'000.0;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port(), 5000.0);

  // A served burst first, so drain has flushed real work behind it.
  constexpr int kBurst = 50;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += encode_earliest_arrival(static_cast<std::uint32_t>(i), 0,
                                     8 * 3600, 2);
  }
  ASSERT_TRUE(client.send_raw(burst));
  for (int i = 0; i < kBurst; ++i) {
    auto payload = client.recv_frame();
    ASSERT_TRUE(payload.has_value());
    auto r = decode_response(payload->data(), payload->size());
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->header.status == Status::kOk ||
                r->header.status == Status::kOverloaded);
  }

  server.request_drain();
  // A request racing the drain either gets the typed kShuttingDown answer
  // or a clean close — never a hang, never an untyped byte.
  if (client.send_raw(encode_ping(9999))) {
    auto payload = client.recv_frame();
    if (payload.has_value()) {
      auto r = decode_response(payload->data(), payload->size());
      ASSERT_TRUE(r.has_value());
      EXPECT_TRUE(r->header.status == Status::kShuttingDown ||
                  r->header.status == Status::kOk);
    }
  }
  server.wait();  // bounded by drain_deadline_ms; returning IS the test
  EXPECT_FALSE(server.running());
  EXPECT_THROW(BlockingClient(kHost, server.port(), 200.0),
               std::runtime_error);
}

TEST(Server, SigtermInstallsDrain) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  server.install_drain_signal(SIGTERM);
  {
    BlockingClient client(kHost, server.port());
    ASSERT_TRUE(client.ping().has_value());
  }
  ASSERT_EQ(std::raise(SIGTERM), 0);
  server.wait();
  EXPECT_THROW(BlockingClient(kHost, server.port(), 200.0),
               std::runtime_error);
}

TEST(Server, EpochTransitionVisibleThroughSocket) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  BlockingClient client(kHost, server.port());

  auto before = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->header.epoch, 0u);

  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 1, 300)).status,
            ApplyStatus::kRelinked);
  auto after = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->header.epoch, 1u);
  // And the answer matches a direct session on the new epoch.
  LiveQuerySession direct(live);
  EXPECT_EQ(after->arrival, direct.earliest_arrival(0, 8 * 3600, 2));
  server.stop();
}

TEST(Server, SurvivesSignalStormDuringPipelinedFlood) {
  // EINTR regression for every syscall in the serving path: a thread
  // hammers the process with a handler-installed, non-SA_RESTART signal
  // while a pipelined flood runs, so epoll_wait / accept4 / recv / send /
  // eventfd reads keep getting interrupted mid-call. Every response must
  // still arrive complete and correct — no short writes, no dropped
  // frames, no spun-out IO loop.
  struct sigaction sa {};
  sa.sa_handler = +[](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls fail EINTR
  struct sigaction old_sa {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old_sa), 0);

  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();  // server threads inherit an unblocked SIGUSR1

  // Block SIGUSR1 on this thread BEFORE spawning the storm thread (which
  // inherits the blocked mask): process-directed kill() then has only the
  // server's IO and worker threads left to deliver to.
  sigset_t block, old_mask;
  sigemptyset(&block);
  sigaddset(&block, SIGUSR1);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &block, &old_mask), 0);

  std::atomic<bool> stop{false};
  std::thread storm([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  LiveQuerySession direct(live);
  const Time expected = direct.earliest_arrival(0, 8 * 3600, 2);
  BlockingClient client(kHost, server.port());
  constexpr int kBursts = 20;
  constexpr std::uint32_t kPerBurst = 16;
  std::uint32_t req_id = 1;
  for (int burst = 0; burst < kBursts; ++burst) {
    // Pipelined: write the whole burst, then collect every response.
    std::string frames;
    for (std::uint32_t i = 0; i < kPerBurst; ++i) {
      frames += encode_earliest_arrival(req_id + i, 0, 8 * 3600, 2);
    }
    ASSERT_TRUE(client.send_raw(frames));
    for (std::uint32_t i = 0; i < kPerBurst; ++i) {
      auto payload = client.recv_frame();
      ASSERT_TRUE(payload.has_value())
          << "burst " << burst << " frame " << i << ": "
          << client_error_name(client.last_error());
      auto res = decode_response(payload->data(), payload->size());
      ASSERT_TRUE(res.has_value());
      EXPECT_EQ(res->header.status, Status::kOk);
      EXPECT_EQ(res->header.req_id, req_id + i);
      EXPECT_EQ(res->arrival, expected);
    }
    req_id += kPerBurst;
  }

  stop.store(true, std::memory_order_release);
  storm.join();
  EXPECT_GE(server.stats().requests_ok,
            static_cast<std::uint64_t>(kBursts) * kPerBurst);
  server.stop();

  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, &old_mask, nullptr), 0);
  ASSERT_EQ(sigaction(SIGUSR1, &old_sa, nullptr), 0);
}

}  // namespace pconn
