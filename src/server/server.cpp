#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <csignal>
#include <stdexcept>

namespace pconn {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::nanoseconds ms_to_ns(double ms) {
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(ms * 1'000'000.0));
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal state

struct QueryServer::AtomicStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::uint64_t> accept_failures{0};
  std::atomic<std::uint64_t> requests_ok{0};
  std::atomic<std::uint64_t> requests_bad{0};
  std::atomic<std::uint64_t> requests_malformed{0};
  std::atomic<std::uint64_t> requests_shed{0};
  std::atomic<std::uint64_t> requests_deadline{0};
  std::atomic<std::uint64_t> requests_shutdown{0};
  std::atomic<std::uint64_t> requests_internal{0};
  std::atomic<std::uint64_t> degraded_served{0};
  std::atomic<std::uint64_t> idle_reaped{0};
  std::atomic<std::uint64_t> slow_clients_closed{0};
  std::array<std::atomic<std::uint64_t>, QueryServer::kLatencyBuckets>
      latency{};
};

struct QueryServer::Conn {
  int fd = -1;
  std::uint64_t gen = 0;
  bool close_after_flush = false;
  bool want_write = false;
  int inflight = 0;  // requests of this conn admitted, response pending
  std::string in_buf;
  std::string out_buf;
  std::size_t out_off = 0;
  Clock::time_point last_activity{};
  Clock::time_point last_write_progress{};
};

// ---------------------------------------------------------------------------
// Admission plan

AdmissionPlan plan_admission(std::size_t memory_budget_bytes,
                             unsigned workers,
                             std::size_t per_worker_scratch_bytes,
                             std::size_t max_request_bytes) {
  // A queued request is the Request struct plus the response it will
  // produce; responses are tiny (a reduced profile of a few hundred points
  // is a few KiB), so 16 KiB is a conservative per-request reservation. A
  // connection additionally owns its input buffer, capped at
  // max_request_bytes.
  constexpr std::size_t kTypicalResponseBytes = std::size_t{16} << 10;
  AdmissionPlan p;
  p.per_worker_scratch_bytes = per_worker_scratch_bytes;
  p.per_request_bytes = 64 + kTypicalResponseBytes;
  p.per_connection_bytes = max_request_bytes + kTypicalResponseBytes;
  const std::size_t scratch_total =
      per_worker_scratch_bytes * std::max(1u, workers);
  const std::size_t remaining =
      memory_budget_bytes > scratch_total ? memory_budget_bytes - scratch_total
                                          : 0;
  const auto clamp = [](std::size_t v, std::size_t lo, std::size_t hi) {
    return std::max(lo, std::min(v, hi));
  };
  p.queue_capacity = clamp(remaining / 2 / p.per_request_bytes, 4, 4096);
  p.max_connections = clamp(remaining / 2 / p.per_connection_bytes, 4, 4096);
  return p;
}

// ---------------------------------------------------------------------------
// Lifecycle

QueryServer::QueryServer(const LiveOverlay& live, ServerOptions opt,
                         QuerySessionOptions session_opt)
    : live_(live),
      opt_(std::move(opt)),
      session_opt_(session_opt),
      stats_(std::make_unique<AtomicStats>()) {}

QueryServer::~QueryServer() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void QueryServer::start() {
  if (running_.load(std::memory_order_acquire)) return;

  // Measure, don't guess: one probe session warmed through both engine
  // families tells us the per-worker scratch bound, which the admission
  // plan reserves before it budgets queue slots. Profile searches run in
  // kSpcsChunk-wide chunks through thread states sized once for
  // |V| x kSpcsChunk labels, so any source reserves the same and no later
  // source grows a worker past it (tests/server_test.cpp). The probe aims
  // at the head of station 0's first outgoing connection, so the search
  // ends almost at once.
  {
    LiveQuerySession probe(live_, session_opt_);
    const Timetable& tt = *probe.pinned().tt;
    const std::size_t n = tt.num_stations();
    if (n >= 2) {
      // No outgoing connection: both searches end at once for any target.
      const auto out = tt.outgoing(0);
      const StationId target =
          out.empty() ? static_cast<StationId>(n - 1) : out.front().to;
      (void)probe.earliest_arrival(0, 0, target);
      (void)probe.station_to_station(0, target);
    }
    plan_ = plan_admission(opt_.memory_budget_bytes, opt_.workers,
                           probe.session().scratch_bytes_reserved(),
                           opt_.max_request_bytes);
  }
  if (opt_.queue_capacity != 0) plan_.queue_capacity = opt_.queue_capacity;
  if (opt_.max_connections != 0) {
    plan_.max_connections = opt_.max_connections;
  }

  if (opt_.listen_fd >= 0) {
    // Adopt a pre-bound, already-listening socket (the supervisor's
    // SO_REUSEPORT shard path). The fd may have been inherited blocking
    // across posix_spawn — the epoll loop requires non-blocking.
    listen_fd_ = opt_.listen_fd;
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
      throw std::runtime_error("server: cannot adopt listen fd");
    }
    sockaddr_in addr{};
    socklen_t alen = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &alen) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  } else {
    listen_fd_ = ::socket(AF_INET,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw std::runtime_error("server: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (opt_.reuse_port) {
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opt_.port);
    if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("server: bad host " + opt_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(listen_fd_, 128) < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("server: bind/listen failed");
    }
    socklen_t alen = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
    port_ = ntohs(addr.sin_port);
  }

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (wake_fd_ < 0 || epoll_fd_ < 0) {
    throw std::runtime_error("server: eventfd/epoll_create1 failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  queue_ = std::make_unique<BoundedMpmcQueue<Request>>(plan_.queue_capacity);
  draining_.store(false, std::memory_order_release);
  stop_workers_.store(false, std::memory_order_release);
  stop_hard_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  workers_.reserve(opt_.workers);
  for (unsigned w = 0; w < opt_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
  io_thread_ = std::thread([this] { io_main(); });
}

void QueryServer::request_drain() noexcept {
  draining_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    // write() is async-signal-safe; the result only matters as a wakeup.
    [[maybe_unused]] ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  }
}

namespace {
std::atomic<QueryServer*> g_signal_server{nullptr};
extern "C" void drain_signal_handler(int) {
  QueryServer* s = g_signal_server.load(std::memory_order_acquire);
  if (s != nullptr) s->request_drain();
}
}  // namespace

void QueryServer::install_drain_signal(int signo) {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = drain_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(signo, &sa, nullptr);
}

void QueryServer::wait() {
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

void QueryServer::stop() {
  stop_hard_.store(true, std::memory_order_release);
  request_drain();
  wait();
}

ServerStats QueryServer::stats() const {
  const AtomicStats& a = *stats_;
  ServerStats s;
  s.connections_accepted = a.connections_accepted.load();
  s.connections_rejected = a.connections_rejected.load();
  s.accept_failures = a.accept_failures.load();
  s.requests_ok = a.requests_ok.load();
  s.requests_bad = a.requests_bad.load();
  s.requests_malformed = a.requests_malformed.load();
  s.requests_shed = a.requests_shed.load();
  s.requests_deadline = a.requests_deadline.load();
  s.requests_shutdown = a.requests_shutdown.load();
  s.requests_internal = a.requests_internal.load();
  s.degraded_served = a.degraded_served.load();
  s.idle_reaped = a.idle_reaped.load();
  s.slow_clients_closed = a.slow_clients_closed.load();
  return s;
}

std::vector<std::uint64_t> QueryServer::accepted_latency_hist() const {
  std::vector<std::uint64_t> out(kLatencyBuckets);
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    out[i] = stats_->latency[i].load(std::memory_order_relaxed);
  }
  return out;
}

// ---------------------------------------------------------------------------
// IO thread

void QueryServer::io_main() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool listen_closed = false;
  bool drain_deadline_set = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    // EINTR is routine here once the shard runs under a supervisor that
    // delivers SIGTERM (drain) and test harnesses that storm signals:
    // treat it as a zero-event wakeup — the drain flag and timer sweeps
    // below still run — and never let it look like an epoll failure.
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 50);
    if (n < 0 && errno != EINTR) {
      // Unrecoverable epoll failure (EBADF and friends): drain rather
      // than spin on a broken loop.
      draining_.store(true, std::memory_order_release);
    }
    const Clock::time_point now = Clock::now();

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        // Drain the eventfd counter; EINTR restarts (a signal between
        // wakeups must not leave the counter set and the loop blind).
        for (;;) {
          std::uint64_t tick;
          const ssize_t rr = ::read(wake_fd_, &tick, sizeof(tick));
          if (rr > 0) continue;
          if (rr < 0 && errno == EINTR) continue;
          break;  // EAGAIN: drained
        }
        continue;
      }
      if (fd == listen_fd_ && !listen_closed) {
        accept_ready();
        continue;
      }
      if (fd < 0 || static_cast<std::size_t>(fd) >= conns_.size() ||
          conns_[fd] == nullptr) {
        continue;  // closed earlier in this batch
      }
      Conn& c = *conns_[fd];
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        conn_readable(c);
      }
      if (static_cast<std::size_t>(fd) < conns_.size() &&
          conns_[fd] != nullptr && (events[i].events & EPOLLOUT)) {
        conn_writable(c);
      }
    }

    drain_completions();
    sweep_timeouts(now);

    const bool hard = stop_hard_.load(std::memory_order_acquire);
    const bool draining = draining_.load(std::memory_order_acquire);
    if ((draining || hard) && !listen_closed && listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listen_closed = true;
    }
    if (hard) break;
    if (draining) {
      if (!drain_deadline_set) {
        drain_deadline = now + ms_to_ns(opt_.drain_deadline_ms);
        drain_deadline_set = true;
      }
      const bool work_done =
          queue_->size_approx() == 0 &&
          inflight_.load(std::memory_order_acquire) == 0;
      bool flushed = true;
      for (const auto& cp : conns_) {
        if (cp != nullptr && cp->out_off < cp->out_buf.size()) {
          flushed = false;
          break;
        }
      }
      if ((work_done && flushed) || now >= drain_deadline) break;
    }
  }

  // Release the pool: workers drain remaining tokens and exit.
  stop_workers_.store(true, std::memory_order_release);
  work_sem_.release(static_cast<std::ptrdiff_t>(opt_.workers));
  for (std::size_t fd = 0; fd < conns_.size(); ++fd) {
    if (conns_[fd] != nullptr) close_conn(static_cast<int>(fd));
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void QueryServer::accept_ready() {
  for (;;) {
    if (opt_.faults != nullptr) {
      try {
        opt_.faults->check(FaultInjector::Site::kAccept);
      } catch (const std::exception&) {
        // Transient accept failure (EMFILE and friends in the wild): log
        // the occurrence and keep serving — the listener survives.
        stats_->accept_failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      stats_->accept_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (open_conns_ >= plan_.max_connections) {
      // Admission at the door: beyond the plan there is no buffer budget
      // for this socket, so refuse it outright instead of queueing.
      stats_->connections_rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (static_cast<std::size_t>(fd) >= conns_.size()) {
      conns_.resize(fd + 1);
    }
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->gen = next_gen_++;
    c->last_activity = Clock::now();
    c->last_write_progress = c->last_activity;
    conns_[fd] = std::move(c);
    ++open_conns_;
    stats_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void QueryServer::conn_readable(Conn& c) {
  char buf[4096];
  // One readiness event reads at most about one frame cap: a client that
  // keeps its socket full must not hold the loop away from epoll_wait
  // (other connections, completions, timeouts, drain, stop). EPOLLIN is
  // level-triggered, so what is left is read on the next pass.
  std::size_t budget =
      std::max(sizeof(buf), kFrameHeaderBytes + opt_.max_request_bytes);
  while (budget > 0) {
    const ssize_t r = ::read(c.fd, buf, sizeof(buf));
    if (r > 0) {
      budget -= std::min(budget, static_cast<std::size_t>(r));
      c.last_activity = Clock::now();
      if (c.close_after_flush) continue;  // framing is lost: discard
      c.in_buf.append(buf, static_cast<std::size_t>(r));
      // Complete frames are answered chunk by chunk, so a pipelined burst
      // of any size is served; what stays buffered is at most one
      // incomplete frame, whose length parse_binary has checked against
      // the frame cap.
      if (!parse_binary(c)) return;  // malformed, or `c` was closed
      assert(c.in_buf.size() < kFrameHeaderBytes + opt_.max_request_bytes);
      continue;
    }
    if (r == 0) {  // peer closed
      close_conn(c.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(c.fd);
    return;
  }
}

bool QueryServer::parse_binary(Conn& c) {
  while (c.in_buf.size() >= kFrameHeaderBytes) {
    const std::uint32_t len = get_u32(c.in_buf.data());
    const bool bad_len =
        len < kRequestPrefixBytes || len > opt_.max_request_bytes;
    if (!bad_len && c.in_buf.size() < kFrameHeaderBytes + len) {
      return true;  // wait for the rest of the frame
    }
    Request r;
    r.fd = c.fd;
    r.gen = c.gen;
    bool malformed = bad_len;
    if (!malformed) {
      const char* p = c.in_buf.data() + kFrameHeaderBytes;
      const auto op_raw = static_cast<std::uint8_t>(p[0]);
      r.req_id = get_u32(p + 1);
      if (op_raw > static_cast<std::uint8_t>(Opcode::kStats)) {
        malformed = true;
      } else {
        r.opcode = static_cast<Opcode>(op_raw);
        if (len != request_payload_bytes(r.opcode)) {
          malformed = true;
        } else {
          const char* args = p + kRequestPrefixBytes;
          switch (r.opcode) {
            case Opcode::kEarliestArrival:
              r.a = get_u32(args);
              r.b = get_u32(args + 4);
              r.c = get_u32(args + 8);
              break;
            case Opcode::kProfile:
              r.a = get_u32(args);
              r.b = get_u32(args + 4);
              break;
            default:
              break;
          }
        }
      }
    }
    if (malformed) {
      // Framing is gone — answer once, then close. (A bogus length means
      // we cannot even resynchronise on the next frame boundary.)
      stats_->requests_malformed.fetch_add(1, std::memory_order_relaxed);
      ResponseHeader h;
      h.status = Status::kMalformed;
      h.req_id = bad_len ? 0 : r.req_id;
      c.close_after_flush = true;  // set BEFORE enqueue: it may close `c`
      c.in_buf.clear();
      enqueue_response(c, encode_response_header(h));
      return false;
    }
    c.in_buf.erase(0, kFrameHeaderBytes + len);
    admit(c, r);
    if (conns_[r.fd] == nullptr) return false;  // admit closed it
  }
  return true;
}

void QueryServer::admit(Conn& c, const Request& req) {
  Request r = req;
  ResponseHeader h;
  h.opcode = r.opcode;
  h.req_id = r.req_id;

  if (draining_.load(std::memory_order_acquire)) {
    stats_->requests_shutdown.fetch_add(1, std::memory_order_relaxed);
    h.status = Status::kShuttingDown;
    enqueue_response(c, encode_response_header(h));
    return;
  }

  r.arrival = Clock::now();
  r.deadline = r.arrival + ms_to_ns(opt_.request_deadline_ms);
  const bool forced_overflow =
      opt_.faults != nullptr &&
      opt_.faults->fires(FaultInjector::Site::kQueueOverflow);

  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (forced_overflow || !queue_->try_push(r)) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    stats_->requests_shed.fetch_add(1, std::memory_order_relaxed);
    h.status = Status::kOverloaded;
    enqueue_response(c, encode_overloaded(h, retry_after_ms()));
    return;
  }
  ++c.inflight;
  work_sem_.release();
}

std::uint32_t QueryServer::retry_after_ms() const {
  const double ewma_ms =
      static_cast<double>(ewma_service_ns_.load(std::memory_order_relaxed)) /
      1e6;
  const double per_slot = ewma_ms > 0.0 ? ewma_ms : 1.0;
  const double depth = static_cast<double>(queue_->size_approx());
  const double workers = static_cast<double>(std::max(1u, opt_.workers));
  const double hint = per_slot * (depth / workers + 1.0);
  return static_cast<std::uint32_t>(
      std::min(60'000.0, std::max(1.0, hint)));
}

void QueryServer::enqueue_response(Conn& c, std::string bytes) {
  const std::size_t pending = c.out_buf.size() - c.out_off;
  if (pending + bytes.size() > opt_.max_out_buf_bytes) {
    // The client is not reading fast enough for what it asked for; holding
    // more output would breach the buffer budget, so the slow client loses
    // its connection rather than the server its memory bound.
    stats_->slow_clients_closed.fetch_add(1, std::memory_order_relaxed);
    close_conn(c.fd);
    return;
  }
  if (c.out_off > 0 && c.out_off == c.out_buf.size()) {
    c.out_buf.clear();
    c.out_off = 0;
  }
  if (c.out_buf.empty()) c.last_write_progress = Clock::now();
  c.out_buf += bytes;
  conn_writable(c);  // opportunistic immediate flush
}

void QueryServer::conn_writable(Conn& c) {
  const int fd = c.fd;
  while (c.out_off < c.out_buf.size()) {
    const ssize_t w =
        ::send(fd, c.out_buf.data() + c.out_off, c.out_buf.size() - c.out_off,
               MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += static_cast<std::size_t>(w);
      c.last_write_progress = Clock::now();
      c.last_activity = c.last_write_progress;
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    close_conn(fd);
    return;
  }
  const bool pending = c.out_off < c.out_buf.size();
  if (!pending) {
    c.out_buf.clear();
    c.out_off = 0;
    if (c.close_after_flush && c.inflight == 0) {
      close_conn(fd);
      return;
    }
  }
  if (pending != c.want_write) {
    c.want_write = pending;
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
}

void QueryServer::close_conn(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= conns_.size() ||
      conns_[fd] == nullptr) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_[fd].reset();  // gen guard: late completions for this conn drop
  --open_conns_;
}

void QueryServer::sweep_timeouts(Clock::time_point now) {
  const auto idle = ms_to_ns(opt_.idle_timeout_ms);
  const auto write_cap = ms_to_ns(opt_.write_timeout_ms);
  for (std::size_t fd = 0; fd < conns_.size(); ++fd) {
    Conn* c = conns_[fd].get();
    if (c == nullptr) continue;
    const bool out_pending = c->out_off < c->out_buf.size();
    if (out_pending && now - c->last_write_progress > write_cap) {
      stats_->slow_clients_closed.fetch_add(1, std::memory_order_relaxed);
      close_conn(static_cast<int>(fd));
      continue;
    }
    if (!out_pending && c->inflight == 0 && now - c->last_activity > idle) {
      stats_->idle_reaped.fetch_add(1, std::memory_order_relaxed);
      close_conn(static_cast<int>(fd));
    }
  }
}

void QueryServer::drain_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& d : done) {
    if (d.fd >= 0 && static_cast<std::size_t>(d.fd) < conns_.size() &&
        conns_[d.fd] != nullptr && conns_[d.fd]->gen == d.gen) {
      Conn& c = *conns_[d.fd];
      if (c.inflight > 0) --c.inflight;
      enqueue_response(c, std::move(d.bytes));
    }
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

// ---------------------------------------------------------------------------
// Workers

void QueryServer::post_completion(Completion done) {
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    completions_.push_back(std::move(done));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
}

void QueryServer::worker_main(unsigned /*widx*/) {
  // One warm session per worker: epoch pinning, engine reuse, and the
  // arena workspace all live here for the thread's lifetime. Refresh is
  // manual so one request is answered entirely from one pinned epoch.
  LiveQuerySession session(live_, session_opt_);
  session.set_auto_refresh(false);
  for (;;) {
    work_sem_.acquire();
    if (stop_workers_.load(std::memory_order_acquire)) break;
    Request r;
    if (!queue_->try_pop(r)) continue;
    const Clock::time_point begin = Clock::now();
    std::string bytes;
    if (begin > r.deadline) {
      // Aged out in the queue: answer without executing — under overload
      // this is what keeps accepted-request latency bounded.
      stats_->requests_deadline.fetch_add(1, std::memory_order_relaxed);
      ResponseHeader h;
      h.status = Status::kDeadlineExceeded;
      h.opcode = r.opcode;
      h.req_id = r.req_id;
      bytes = encode_response_header(h);
    } else {
      bytes = execute(session, r);
      const Clock::time_point end = Clock::now();
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
              .count());
      const std::uint64_t old =
          ewma_service_ns_.load(std::memory_order_relaxed);
      ewma_service_ns_.store(old == 0 ? ns : old - old / 8 + ns / 8,
                             std::memory_order_relaxed);
      const bool overran =
          end > r.deadline ||
          (opt_.faults != nullptr &&
           opt_.faults->fires(FaultInjector::Site::kWorkerDeadline));
      if (overran) {
        // The query finished but after its deadline (or a forced overrun):
        // the client has given up; a typed error beats a stale answer.
        stats_->requests_deadline.fetch_add(1, std::memory_order_relaxed);
        ResponseHeader h;
        h.status = Status::kDeadlineExceeded;
        h.opcode = r.opcode;
        h.req_id = r.req_id;
        bytes = encode_response_header(h);
      } else {
        const auto total_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                 r.arrival)
                .count());
        const std::size_t bucket = std::min<std::size_t>(
            total_ns >> kLatencyBucketShiftNs, kLatencyBuckets - 1);
        stats_->latency[bucket].fetch_add(1, std::memory_order_relaxed);
      }
    }
    post_completion(Completion{r.fd, r.gen, std::move(bytes)});
  }
}

std::string QueryServer::execute(LiveQuerySession& session,
                                 const Request& r) {
  session.refresh();
  const LiveSnapshot& snap = session.pinned();
  ResponseHeader h;
  h.opcode = r.opcode;
  h.req_id = r.req_id;
  h.epoch = snap.epoch;
  h.degraded = snap.degraded;

  const auto station_ok = [&](std::uint32_t s) {
    return s < snap.tt->num_stations();
  };

  try {
    if (opt_.faults != nullptr) {
      opt_.faults->check(FaultInjector::Site::kServerWorker);
    }
    switch (r.opcode) {
      case Opcode::kPing:
        stats_->requests_ok.fetch_add(1, std::memory_order_relaxed);
        h.status = Status::kOk;
        return encode_response_header(h);
      case Opcode::kEarliestArrival: {
        if (!station_ok(r.a) || !station_ok(r.c)) break;
        const Time arr = session.earliest_arrival(r.a, r.b, r.c);
        stats_->requests_ok.fetch_add(1, std::memory_order_relaxed);
        if (snap.degraded) {
          stats_->degraded_served.fetch_add(1, std::memory_order_relaxed);
        }
        h.status = Status::kOk;
        return encode_ea_response(h, arr);
      }
      case Opcode::kProfile: {
        if (!station_ok(r.a) || !station_ok(r.b)) break;
        const StationQueryResult& res = session.station_to_station(r.a, r.b);
        stats_->requests_ok.fetch_add(1, std::memory_order_relaxed);
        if (snap.degraded) {
          stats_->degraded_served.fetch_add(1, std::memory_order_relaxed);
        }
        h.status = Status::kOk;
        return encode_profile_response(h, res.profile);
      }
      case Opcode::kStats: {
        stats_->requests_ok.fetch_add(1, std::memory_order_relaxed);
        h.status = Status::kOk;
        const std::uint64_t ok =
            stats_->requests_ok.load(std::memory_order_relaxed);
        const std::uint64_t shed =
            stats_->requests_shed.load(std::memory_order_relaxed);
        const std::uint64_t dead =
            stats_->requests_deadline.load(std::memory_order_relaxed);
        const std::uint64_t mal =
            stats_->requests_malformed.load(std::memory_order_relaxed);
        const std::uint64_t depth = queue_->size_approx();
        return encode_stats_response(h, ok, shed, dead, mal, depth);
      }
    }
    // Fell through a station check: parseable but invalid arguments.
    stats_->requests_bad.fetch_add(1, std::memory_order_relaxed);
    h.status = Status::kBadRequest;
    return encode_response_header(h);
  } catch (const std::exception&) {
    // A worker fault answers THIS request and poisons nothing else: the
    // session is left in a safe state (engines rebuild lazily) and the
    // worker keeps serving.
    stats_->requests_internal.fetch_add(1, std::memory_order_relaxed);
    h.status = Status::kInternal;
    return encode_response_header(h);
  }
}

}  // namespace pconn
