#include "serving.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "algo/contraction.hpp"
#include "algo/session.hpp"
#include "graph/td_graph.hpp"
#include "live/delay_feed.hpp"
#include "server/client.hpp"
#include "timetable/snapshot.hpp"

namespace pconn::e2e {

namespace {

constexpr const char* kHost = "127.0.0.1";

std::chrono::steady_clock::time_point steady_at(std::int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

/// One delay-feed event drawn against the timetable it will be applied to.
DelayEvent draw_event(const Timetable& tt, Rng& rng) {
  const double kind = rng.next_double();
  const TrainId train = static_cast<TrainId>(rng.next_below(tt.num_trips()));
  const Trip& trip = tt.trip(train);
  const Route& route = tt.route(trip.route);
  if (kind < 0.8) {
    // Hold before the last stop, 1-10 minutes.
    const auto stop =
        static_cast<std::uint32_t>(rng.next_below(route.stops.size() - 1));
    return DelayEvent::delayed(train, stop,
                               static_cast<Time>(60 + rng.next_below(541)));
  }
  if (kind < 0.9) return DelayEvent::cancelled(train);
  // Relief run: the same stops, 2-12 minutes behind the drawn trip.
  const auto shift = static_cast<Time>(120 + rng.next_below(601));
  std::vector<TimetableBuilder::StopTime> stops;
  for (std::size_t k = 0; k < route.stops.size(); ++k) {
    stops.push_back({route.stops[k], trip.arrivals[k] + shift,
                     trip.departures[k] + shift});
  }
  return DelayEvent::extra_trip(std::move(stops));
}

}  // namespace

// Each fixed rate is about a third of the deployment's max_qps on a calm
// 4-vCPU host and half of it in the host's slow phases, so a slow phase does
// not push the window into saturation. cold_restart stays at 1000 req/s so
// a kill strands few requests.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"ea_bus", gen::Preset::kLosAngelesLike, Deploy::kFleet, 1, 2, 4000.0,
       0.0, 0.0, 0.0, 16,
       "per-request cost dominates: parse, queue, epoll, encode and the "
       "overlay time engine; the SPCS profile engine does no work"},
      {"mixed_rail", gen::Preset::kEuropeLike, Deploy::kFleet, 1, 2, 800.0,
       0.2, 0.0, 0.0, 100,
       "the paper's SPCS profile engine does most of the work on a sparse "
       "railway; EA requests queue behind profiles"},
      {"live_feed", gen::Preset::kLosAngelesLike, Deploy::kInProcess, 1, 2,
       2500.0, 0.0, 4.0, 0.0, 16,
       "delay-feed writes run beside reads: apply, relink and epoch rebinds "
       "are on the critical path only here"},
      {"cold_restart", gen::Preset::kLosAngelesLike, Deploy::kFleet, 2, 1,
       1000.0, 0.0, 0.0, 2.0, 16,
       "shards are SIGKILLed every 2 s: snapshot map and load, spawn and "
       "restart are the whole story"},
  };
  return kAll;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string deployment_name(const WorkloadSpec& w) {
  if (w.deploy == Deploy::kInProcess) {
    return "in-process " + std::to_string(w.workers) + " workers";
  }
  return "fleet " + std::to_string(w.shards) + "x" + std::to_string(w.workers);
}

QueryStream::QueryStream(const Timetable& tt, std::uint64_t seed,
                         double profile_share)
    : rng_(seed),
      stations_(tt.num_stations()),
      period_(tt.period()),
      profile_share_(profile_share) {}

Query QueryStream::next() {
  return next(rng_.next_bool(profile_share_) ? Opcode::kProfile
                                             : Opcode::kEarliestArrival);
}

Query QueryStream::next(Opcode op) {
  for (;;) {
    Query q;
    q.op = op;
    q.s = static_cast<StationId>(rng_.next_below(stations_));
    q.t = static_cast<StationId>(rng_.next_below(stations_ - 1));
    if (q.t >= q.s) ++q.t;
    if (op == Opcode::kEarliestArrival) {
      q.dep = static_cast<Time>(rng_.next_below(period_));
    }
    if (seen_.insert(key(q)).second) return q;
  }
}

std::uint64_t QueryStream::key(const Query& q) {
  return (std::uint64_t{q.op == Opcode::kProfile} << 63) |
         (std::uint64_t{q.s} << 42) | (std::uint64_t{q.t} << 21) | q.dep;
}

std::vector<Request> plan_phase(QueryStream& qs, Rng& rng, double rate,
                                double seconds) {
  const std::vector<std::int64_t> at = poisson_schedule(rng, rate, seconds);
  std::vector<Request> reqs(at.size());
  for (std::size_t i = 0; i < at.size(); ++i) {
    reqs[i].at_ns = at[i];
    reqs[i].q = qs.next();
    reqs[i].sampled = rng.next_below(16) == 0;
  }
  return reqs;
}

std::vector<pid_t> Deployment::pids() const {
  std::vector<pid_t> out;
  if (fleet) {
    for (unsigned i = 0; i < fleet->shard_count(); ++i) {
      const pid_t p = fleet->shard_pid(i);
      if (p > 0) out.push_back(p);
    }
  } else {
    out.push_back(::getpid());
  }
  return out;
}

void Deployment::stop() {
  if (fleet) fleet->stop();
  fleet.reset();
  if (server) server->stop();
  server.reset();
  live.reset();
}

void build_snapshot(const Timetable& tt, const std::string& path,
                    Tracer& tracer, std::uint32_t parent) {
  const TdGraph g = [&] {
    Scoped s(tracer, "graph", "build", parent);
    return TdGraph::build(tt);
  }();
  const OverlayGraph ov = [&] {
    Scoped s(tracer, "algo", "contract", parent);
    return contract_graph(tt, g);
  }();
  Scoped s(tracer, "timetable", "snapshot_save", parent);
  save_snapshot(tt, &ov, path);
}

std::unique_ptr<ShardSupervisor> start_fleet(const std::string& snapshot,
                                             unsigned shards, unsigned workers,
                                             Tracer& tracer,
                                             std::uint32_t parent) {
  SupervisorOptions o;
  o.host = kHost;
  o.shards = shards;
  o.shard_workers = workers;
  o.snapshot_path = snapshot;
  o.queue_capacity = kQueueCapacity;
  auto sup = std::make_unique<ShardSupervisor>(o);
  Scoped s(tracer, "supervisor", "spawn_to_healthy", parent);
  sup->start();
  if (!sup->wait_healthy(shards, 20'000.0)) {
    throw std::runtime_error("fleet did not become healthy");
  }
  return sup;
}

Deployment cold_start(const WorkloadSpec& w, Timetable tt,
                      const std::string& snapshot, const Query& probe,
                      Tracer& tracer, ColdStart* out) {
  Deployment d;
  const std::int64_t t0 = now_ns();
  Scoped setup(tracer, "bench", "cold_start");
  if (w.deploy == Deploy::kFleet) {
    build_snapshot(tt, snapshot, tracer, setup.id());
    d.fleet = start_fleet(snapshot, w.shards, w.workers, tracer, setup.id());
    d.port = d.fleet->port();
  } else {
    {
      Scoped s(tracer, "live", "build", setup.id());
      LiveOverlayOptions lo;
      lo.contraction.witness_settles = 0;  // the live configuration
      d.live = std::make_unique<LiveOverlay>(std::move(tt), lo);
    }
    Scoped s(tracer, "server", "start", setup.id());
    ServerOptions so;
    so.host = kHost;
    so.workers = w.workers;
    so.queue_capacity = kQueueCapacity;
    d.server = std::make_unique<QueryServer>(*d.live, so);
    d.server->start();
    d.port = d.server->port();
  }
  Scoped first(tracer, "server", "first_answer", setup.id());
  BlockingClient client(kHost, d.port, 30'000.0);
  if (!client.send_raw(encode_query(probe, 1))) {
    throw std::runtime_error("cold start: first request not sent");
  }
  std::optional<std::string> payload = client.recv_frame();
  if (!payload) throw std::runtime_error("cold start: no first answer");
  out->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  out->probe = probe;
  out->first_payload = std::move(*payload);
  return d;
}

std::unique_ptr<LiveOverlay> load_snapshot(const std::string& path) {
  MappedSnapshot m(path);
  return std::make_unique<LiveOverlay>(m.load_timetable(), m.load_overlay());
}

std::string Oracle::payload(const Query& q, std::uint32_t req_id) {
  ResponseHeader h;
  h.status = Status::kOk;
  h.opcode = q.op;
  h.req_id = req_id;
  if (q.op == Opcode::kProfile) {
    const StationQueryResult& r = session_.station_to_station(q.s, q.t);
    h.epoch = session_.epoch();
    h.degraded = session_.serving_degraded();
    return encode_profile_response(h, r.profile).substr(kFrameHeaderBytes);
  }
  const Time arr = session_.earliest_arrival(q.s, q.dep, q.t);
  h.epoch = session_.epoch();
  h.degraded = session_.serving_degraded();
  return encode_ea_response(h, arr).substr(kFrameHeaderBytes);
}

bool check_identity(std::uint16_t port, Oracle& oracle,
                    const std::vector<Query>& queries) {
  BlockingClient client(kHost, port, 30'000.0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    if (!client.send_raw(encode_query(queries[i], id))) return false;
    const std::optional<std::string> got = client.recv_frame();
    if (!got || *got != oracle.payload(queries[i], id)) return false;
  }
  return true;
}

Verified verify_samples(Oracle& oracle, std::vector<Phase*> phases) {
  Verified v;
  for (Phase* p : phases) {
    for (std::size_t i = 0; i < p->reqs.size(); ++i) {
      Request& r = p->reqs[i];
      if (!r.sampled || !r.ok()) continue;
      ++v.checked;
      const auto id = p->id_base + static_cast<std::uint32_t>(i);
      if (r.payload != oracle.payload(r.q, id)) {
        r.fail = Fail::kWrong;
        ++v.wrong;
      }
    }
  }
  return v;
}

Scheduled::Scheduled(std::vector<std::int64_t> at,
                     std::function<void(std::size_t)> fn)
    : at_(std::move(at)), fn_(std::move(fn)), thread_([this] {
        for (std::size_t k = 0; k < at_.size(); ++k) {
          {
            std::unique_lock<std::mutex> lock(mutex_);
            if (cv_.wait_until(lock, steady_at(at_[k]),
                               [this] { return stop_; })) {
              return;
            }
          }
          fn_(k);
        }
      }) {}

void Scheduled::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Feed::start(std::int64_t t0_ns, double per_s, double max_seconds) {
  Rng schedule_rng(rng_.next_u64());
  std::vector<std::int64_t> at =
      poisson_schedule(schedule_rng, per_s, max_seconds);
  for (std::int64_t& t : at) t += t0_ns;
  thread_ = std::make_unique<Scheduled>(
      at, [this, at](std::size_t k) { apply_one(at[k]); });
}

void Feed::stop() {
  if (thread_) thread_->stop();
}

void Feed::apply_one(std::int64_t at_ns) {
  FeedRecord rec;
  rec.at_ns = at_ns;
  rec.ev = draw_event(*live_.snapshot()->tt, rng_);
  const std::uint32_t span = tracer_.begin("live", "apply");
  rec.begin_ns = now_ns();
  const ApplyResult r = live_.apply(rec.ev);
  rec.end_ns = now_ns();
  tracer_.end(span);
  rec.status = r.status;
  rec.epoch = r.epoch;
  if (r.status == ApplyStatus::kDegraded) {
    const ApplyResult rr = live_.retry();
    if (rr.status == ApplyStatus::kRecontracted) rec.retry_epoch = rr.epoch;
  }
  pinned_max_ = std::max(pinned_max_, live_.retired_pinned());
  log_.push_back(std::move(rec));
}

FeedCheck check_feed(const Timetable& tt0, const std::vector<FeedRecord>& log,
                     std::vector<Phase*> verify, const Phase& phase) {
  FeedCheck out;
  // Epoch -> (accepted events folded in, degraded).
  struct EpochInfo {
    int events = -1;
    bool degraded = false;
  };
  std::vector<EpochInfo> epochs(1, EpochInfo{0, false});
  std::vector<const DelayEvent*> accepted;
  for (const FeedRecord& rec : log) {
    if (rec.status == ApplyStatus::kRejected) continue;
    accepted.push_back(&rec.ev);
    const int k = static_cast<int>(accepted.size());
    const std::uint64_t top = std::max(rec.epoch, rec.retry_epoch);
    if (epochs.size() <= top) epochs.resize(top + 1);
    epochs[rec.epoch] = {k, rec.status == ApplyStatus::kDegraded};
    if (rec.retry_epoch != 0) epochs[rec.retry_epoch] = {k, false};
  }

  // Samples on every 8th epoch, replayed in epoch order.
  struct Sample {
    Phase* phase;
    std::size_t idx;
  };
  std::vector<std::vector<Sample>> by_epoch(epochs.size());
  for (Phase* p : verify) {
    for (std::size_t i = 0; i < p->reqs.size(); ++i) {
      Request& r = p->reqs[i];
      if (!r.sampled || !r.ok()) continue;
      if (r.epoch >= epochs.size() || epochs[r.epoch].events < 0) {
        r.fail = Fail::kWrong;  // an epoch the feed never published
        ++out.verified.checked;
        ++out.verified.wrong;
        continue;
      }
      if (r.epoch % 8 == 0) by_epoch[r.epoch].push_back({p, i});
    }
  }
  Timetable tt = tt0;
  int folded = 0;
  for (std::size_t e = 0; e < by_epoch.size(); e += 8) {
    if (by_epoch[e].empty()) continue;
    while (folded < epochs[e].events) tt = apply_event(tt, *accepted[folded++]);
    const TdGraph g = TdGraph::build(tt);
    QuerySession flat(tt, g);
    for (const Sample& s : by_epoch[e]) {
      Request& r = s.phase->reqs[s.idx];
      ResponseHeader h;
      h.status = Status::kOk;
      h.opcode = r.q.op;
      h.req_id = s.phase->id_base + static_cast<std::uint32_t>(s.idx);
      h.epoch = e;
      h.degraded = epochs[e].degraded;
      const std::string want =
          r.q.op == Opcode::kProfile
              ? encode_profile_response(
                    h, flat.station_to_station(r.q.s, r.q.t).profile)
              : encode_ea_response(h, flat.earliest_arrival(r.q.s, r.q.dep,
                                                            r.q.t));
      ++out.verified.checked;
      if (r.payload != want.substr(kFrameHeaderBytes)) {
        r.fail = Fail::kWrong;
        ++out.verified.wrong;
      }
    }
  }

  // Staleness: scheduled event time -> first answer stamped with an epoch
  // at least the event's. Answers in completion order, with the running
  // maximum epoch (monotone, so each event is one binary search).
  struct Answer {
    std::int64_t done_ns;
    std::uint64_t epoch;
    double latency_ms;
  };
  std::vector<Answer> answers;
  for (const Request& r : phase.reqs) {
    if (r.ok()) {
      answers.push_back({phase.start_ns + r.done_ns, r.epoch, r.latency_ms()});
    }
  }
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) {
              return a.done_ns < b.done_ns;
            });
  std::vector<std::uint64_t> max_epoch(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    max_epoch[i] = std::max(answers[i].epoch, i ? max_epoch[i - 1] : 0);
  }
  const std::int64_t end_ns =
      phase.start_ns + (phase.reqs.empty() ? 0 : phase.reqs.back().at_ns);
  for (const FeedRecord& rec : log) {
    if (rec.status == ApplyStatus::kRejected || rec.at_ns < phase.start_ns ||
        rec.at_ns > end_ns) {
      continue;
    }
    const std::size_t i =
        std::lower_bound(max_epoch.begin(), max_epoch.end(), rec.epoch) -
        max_epoch.begin();
    if (i == answers.size()) continue;  // no answer on it in this window
    const Answer& a = answers[i];
    out.staleness_ms.push_back(static_cast<double>(a.done_ns - rec.at_ns) /
                               1e6);
    out.publish_to_answer_ms.push_back(
        static_cast<double>(std::max<std::int64_t>(0, a.done_ns - rec.end_ns)) /
        1e6);
    out.first_after_us.push_back(a.latency_ms * 1e3);
  }
  return out;
}

KillRecord kill_and_wait(ShardSupervisor& sup, unsigned victim) {
  KillRecord rec;
  const pid_t pid = sup.shard_pid(victim);
  if (pid <= 0) return rec;
  const std::int64_t t0 = now_ns();
  std::int64_t reaped = -1, spawned = -1;
  ::kill(pid, SIGKILL);
  while (now_ns() - t0 < 5'000'000'000) {
    const pid_t p = sup.shard_pid(victim);
    const std::int64_t t = now_ns();
    if (reaped < 0 && p != pid) reaped = t;
    if (reaped >= 0 && spawned < 0 && p > 0 && p != pid) spawned = t;
    if (spawned >= 0 && sup.healthy_shards() == sup.shard_count()) {
      rec.detect_ms = static_cast<double>(reaped - t0) / 1e6;
      rec.respawn_ms = static_cast<double>(spawned - reaped) / 1e6;
      rec.ready_ms = static_cast<double>(t - spawned) / 1e6;
      return rec;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return rec;
}

std::optional<SmapsRollup> smaps(const std::vector<pid_t>& pids) {
  SmapsRollup sum;
  for (const pid_t pid : pids) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/smaps_rollup");
    std::stringstream text;
    text << in.rdbuf();
    const std::optional<SmapsRollup> r = parse_smaps_rollup(text.str());
    if (!r) return std::nullopt;
    sum.pss_kb += r->pss_kb;
    sum.private_kb += r->private_kb;
  }
  return sum;
}

}  // namespace pconn::e2e
