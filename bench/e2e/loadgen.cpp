#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "trace.hpp"

namespace pconn::e2e {

namespace {

constexpr std::uint64_t kTimerKey = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kReconnectDelayNs = 2'000'000;
constexpr std::size_t kMaxFrameBytes = std::size_t{16} << 20;

}  // namespace

std::string encode_query(const Query& q, std::uint32_t id) {
  return q.op == Opcode::kProfile
             ? encode_profile(id, q.s, q.t)
             : encode_earliest_arrival(id, q.s, q.dep, q.t);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

OpenLoopClient::OpenLoopClient(std::uint16_t port, unsigned conns)
    : port_(port), conns_(std::clamp(conns, 1u, 4u)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    throw std::runtime_error("loadgen: epoll/timerfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!connect_conn(c)) {
      throw std::runtime_error("loadgen: cannot connect to port " +
                               std::to_string(port));
    }
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

// Loopback connects complete (or are refused) inside the kernel, so a
// blocking connect() never stalls the loop; the socket turns non-blocking
// afterwards.
bool OpenLoopClient::connect_conn(std::size_t c) {
  Conn& conn = conns_[c];
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  conn.fd = fd;
  conn.in.clear();
  conn.out.clear();
  conn.out_off = 0;
  conn.outstanding = 0;
  conn.want_write = false;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  return true;
}

std::vector<std::string> OpenLoopClient::exchange(std::size_t c,
                                                  const std::string& frames,
                                                  std::size_t replies) {
  Conn& conn = conns_[c];
  std::vector<std::string> out;
  std::size_t off = 0;
  while (off < frames.size()) {
    pollfd pfd{conn.fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return out;
    const ssize_t w = ::send(conn.fd, frames.data() + off, frames.size() - off,
                             MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (errno != EAGAIN && errno != EINTR) {
      return out;
    }
  }
  while (out.size() < replies) {
    while (conn.in.size() >= kFrameHeaderBytes) {
      const std::uint32_t len = get_u32(conn.in.data());
      if (conn.in.size() < kFrameHeaderBytes + len) break;
      out.push_back(conn.in.substr(kFrameHeaderBytes, len));
      conn.in.erase(0, kFrameHeaderBytes + len);
    }
    if (out.size() >= replies) break;
    pollfd pfd{conn.fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return out;
    char buf[4096];
    const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
    if (r > 0) {
      conn.in.append(buf, static_cast<std::size_t>(r));
    } else if (r == 0 || (errno != EAGAIN && errno != EINTR)) {
      return out;
    }
  }
  return out;
}

bool OpenLoopClient::ok_counts(std::vector<std::uint64_t>& out) {
  out.assign(conns_.size(), 0);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    const std::vector<std::string> r = exchange(c, encode_stats(next_id_++), 1);
    if (r.size() != 1) return false;
    const std::optional<DecodedResponse> d = decode_response(r[0].data(),
                                                             r[0].size());
    if (!d || d->header.status != Status::kOk) return false;
    out[c] = d->stats[0];
  }
  return true;
}

bool OpenLoopClient::balance_two_shards() {
  constexpr std::size_t kPings = 32;  // well above the stats calls between
  const std::size_t half = conns_.size() / 2;
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<std::uint64_t> before, after;
    std::string pings;
    for (std::size_t i = 0; i < kPings; ++i) pings += encode_ping(next_id_++);
    if (!ok_counts(before) || exchange(0, pings, kPings).size() != kPings ||
        !ok_counts(after)) {
      return false;
    }
    std::vector<std::size_t> with_first, other;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      (after[c] - before[c] >= kPings ? with_first : other).push_back(c);
    }
    if (with_first.size() == half) return true;
    const std::size_t moved =
        with_first.size() > half ? with_first.back() : other.back();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conns_[moved].fd, nullptr);
    ::close(conns_[moved].fd);
    conns_[moved].fd = -1;
    if (!connect_conn(moved)) return false;
  }
  return false;
}

bool OpenLoopClient::broadcast(const std::vector<Query>& queries) {
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    std::string frames;
    for (const Query& q : queries) frames += encode_query(q, next_id_++);
    const std::vector<std::string> r = exchange(c, frames, queries.size());
    if (r.size() != queries.size()) return false;
    for (const std::string& payload : r) {
      if (payload.empty() ||
          static_cast<Status>(static_cast<std::uint8_t>(payload[0])) !=
              Status::kOk) {
        return false;
      }
    }
  }
  return true;
}

void OpenLoopClient::watch_write(std::size_t c, bool on) {
  Conn& conn = conns_[c];
  if (conn.want_write == on) return;
  conn.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (on ? EPOLLOUT : 0u);
  ev.data.u64 = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

// Every unanswered request last sent on `c` goes back to the pending list
// and is resent on the next live connection, still timed from its schedule.
void OpenLoopClient::lose_conn(std::size_t c) {
  Conn& conn = conns_[c];
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.outstanding = 0;
  conn.reconnect_at = now_ns();
  if (phase_ == nullptr) return;
  for (std::size_t i = 0; i < phase_->reqs.size(); ++i) {
    Request& r = phase_->reqs[i];
    if (r.done_ns < 0 && r.sends > 0 && r.conn == c) {
      r.conn = 0xff;  // not on any connection
      pending_.push_back(i);
      ++phase_->resent;
    }
  }
}

void OpenLoopClient::dispatch(std::size_t i) {
  std::size_t best = conns_.size();
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (conns_[c].fd < 0) continue;
    if (best == conns_.size() ||
        conns_[c].outstanding < conns_[best].outstanding) {
      best = c;
    }
  }
  Request& r = phase_->reqs[i];
  if (best == conns_.size()) {
    r.conn = 0xff;
    pending_.push_back(i);
    return;
  }
  const std::uint32_t id = phase_->id_base + static_cast<std::uint32_t>(i);
  Conn& conn = conns_[best];
  conn.out += encode_query(r.q, id);
  if (r.sends == 0) r.sent_ns = now_ns() - phase_->start_ns;
  ++r.sends;
  r.conn = static_cast<std::uint8_t>(best);
  ++conn.outstanding;
  flush(best);
}

void OpenLoopClient::flush(std::size_t c) {
  Conn& conn = conns_[c];
  while (conn.fd >= 0 && conn.out_off < conn.out.size()) {
    const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      conn.out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      watch_write(c, true);
      return;
    }
    lose_conn(c);
    return;
  }
  if (conn.fd >= 0) {
    conn.out.clear();
    conn.out_off = 0;
    watch_write(c, false);
  }
}

void OpenLoopClient::read_conn(std::size_t c) {
  Conn& conn = conns_[c];
  char buf[1 << 16];
  bool lost = false;  // orderly close or reset; answers read so far count
  for (;;) {
    const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
    if (r > 0) {
      conn.in.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    lost = !(r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    break;
  }
  const std::int64_t now = now_ns() - (phase_ ? phase_->start_ns : 0);
  std::size_t off = 0;
  while (conn.in.size() - off >= kFrameHeaderBytes) {
    const std::uint32_t len = get_u32(conn.in.data() + off);
    if (len < kResponseHeaderBytes || len > kMaxFrameBytes) {
      lost = true;  // framing lost; resend what was in flight
      break;
    }
    if (conn.in.size() - off < kFrameHeaderBytes + len) break;
    const char* p = conn.in.data() + off + kFrameHeaderBytes;
    off += kFrameHeaderBytes + len;
    if (phase_ == nullptr) continue;
    const std::uint32_t id = get_u32(p + 4) - phase_->id_base;
    if (id >= phase_->reqs.size()) continue;  // a previous phase's straggler
    Request& req = phase_->reqs[id];
    if (req.done_ns >= 0 || req.conn != c) continue;
    req.done_ns = now;
    req.epoch = get_u64(p + 8);
    switch (static_cast<Status>(static_cast<std::uint8_t>(p[0]))) {
      case Status::kOk: req.fail = Fail::kNone; break;
      case Status::kOverloaded: req.fail = Fail::kShed; break;
      case Status::kDeadlineExceeded: req.fail = Fail::kDeadline; break;
      default: req.fail = Fail::kStatus; break;
    }
    if (req.sampled) req.payload.assign(p, len);
    if (tracer_ != nullptr) {
      tracer_->add("load", req.q.op == Opcode::kProfile ? "profile" : "ea",
                   phase_->start_ns + req.at_ns, phase_->start_ns + now, 0,
                   phase_->id_base + id);
    }
    if (conn.outstanding > 0) --conn.outstanding;
    ++answered_;
  }
  if (lost) {
    lose_conn(c);
    return;
  }
  conn.in.erase(0, off);
}

void OpenLoopClient::run(Phase& phase) {
  phase_ = &phase;
  answered_ = 0;
  next_ = 0;
  pending_.clear();
  for (Conn& c : conns_) c.outstanding = 0;  // earlier phases' stragglers
  std::vector<Request>& reqs = phase.reqs;
  const std::size_t n = reqs.size();
  phase.id_base = next_id_;
  next_id_ += static_cast<std::uint32_t>(n) + 1;
  if (phase.start_ns == 0) phase.start_ns = now_ns() + 1'000'000;
  const bool closed = phase.in_flight > 0;
  std::int64_t give_up =
      closed ? phase.closed_ns + kAnswerTimeoutNs
             : (n == 0 ? 0 : reqs.back().at_ns) + kAnswerTimeoutNs;
  std::size_t end = n;   // requests that will be sent
  bool stopped = false;  // closed loop: past closed_ns, draining

  std::int64_t armed = -1;
  epoll_event events[16];
  for (;;) {
    std::int64_t now = now_ns() - phase.start_ns;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].fd < 0 && conns_[c].reconnect_at - phase.start_ns <= now) {
        if (!connect_conn(c)) {
          conns_[c].reconnect_at = now_ns() + kReconnectDelayNs;
        }
      }
    }
    if (!pending_.empty()) {
      std::vector<std::size_t> retry;
      retry.swap(pending_);
      for (const std::size_t i : retry) dispatch(i);
    }
    if (closed) {
      if (!stopped && now >= phase.closed_ns) {
        stopped = true;
        end = next_;  // stop sending, wait for what is in flight
        give_up = now + kAnswerTimeoutNs;
      }
      while (next_ < end && next_ - answered_ < phase.in_flight) {
        reqs[next_].at_ns = now_ns() - phase.start_ns;
        dispatch(next_);
        ++next_;
      }
    } else {
      while (next_ < n && reqs[next_].at_ns <= now) {
        dispatch(next_);
        ++next_;
      }
    }
    now = now_ns() - phase.start_ns;
    if (next_ == end && (answered_ == end || now >= give_up)) break;

    std::int64_t wake = !closed   ? (next_ < n ? reqs[next_].at_ns : give_up)
                        : stopped ? give_up
                                  : phase.closed_ns;
    for (const Conn& c : conns_) {
      if (c.fd < 0) wake = std::min(wake, c.reconnect_at - phase.start_ns);
    }
    if (wake != armed) {
      const std::int64_t abs_ns = phase.start_ns + std::max<std::int64_t>(
                                                       wake, now + 1000);
      itimerspec its{};
      its.it_value.tv_sec = abs_ns / 1'000'000'000;
      its.it_value.tv_nsec = abs_ns % 1'000'000'000;
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
      armed = wake;
    }
    const int k = ::epoll_wait(epoll_fd_, events, 16, -1);
    for (int e = 0; e < k; ++e) {
      if (events[e].data.u64 == kTimerKey) {
        std::uint64_t ticks;
        while (::read(timer_fd_, &ticks, sizeof(ticks)) > 0) {
        }
        armed = -1;
        continue;
      }
      const std::size_t c = events[e].data.u64;
      if (conns_[c].fd < 0) continue;
      if (events[e].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        read_conn(c);
      }
      if (conns_[c].fd >= 0 && (events[e].events & EPOLLOUT)) flush(c);
    }
  }

  reqs.resize(end);
  for (Request& r : reqs) {
    if (r.done_ns < 0) {
      r.fail = r.sends > 1 ? Fail::kConn : Fail::kTimeout;
    } else if (r.done_ns - r.at_ns > kAnswerTimeoutNs) {
      r.fail = Fail::kTimeout;
    }
  }
  phase_ = nullptr;
}

}  // namespace pconn::e2e
