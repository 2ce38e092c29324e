// The benchmark's load generator: one thread, one epoll loop, at most four
// pipelined TCP connections; open loop, or closed loop for saturation.
//
// In the open loop every request has a scheduled send time and is timed
// from it, so a stall in the server also charges the requests it delayed
// behind it. A request goes out on the connection with the fewest requests
// in flight. When a connection dies (a killed shard resets its sockets) its
// unanswered requests are sent again on another connection and are still
// timed from their original schedule; queries are idempotent reads, so
// resending is safe. A request not answered kOk within 1 s of its schedule
// fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "timetable/types.hpp"

namespace pconn::e2e {

class Tracer;

struct Query {
  Opcode op = Opcode::kEarliestArrival;
  StationId s = 0;
  StationId t = 0;
  Time dep = 0;  // kEarliestArrival only
};

/// The request frame of `q` with request id `id`.
std::string encode_query(const Query& q, std::uint32_t id);

/// Why a request does not count as answered correctly.
enum class Fail : std::uint8_t {
  kNone = 0,
  kShed,      // kOverloaded
  kDeadline,  // kDeadlineExceeded
  kStatus,    // any other non-kOk status
  kConn,      // its connection died and no resend was answered
  kTimeout,   // unanswered, or answered more than 1 s after its schedule
  kWrong,     // kOk, but the sampled answer failed verification
};

constexpr std::int64_t kAnswerTimeoutNs = 1'000'000'000;

/// One planned request and what became of it. Times are ns from the start
/// of the phase that sent it.
struct Request {
  std::int64_t at_ns = 0;  // scheduled send
  Query q;
  bool sampled = false;    // keep the payload for verification
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;
  std::uint64_t epoch = 0;
  Fail fail = Fail::kTimeout;
  std::uint8_t conn = 0;
  std::uint8_t sends = 0;
  std::string payload;  // response payload (sampled requests only)

  bool ok() const { return fail == Fail::kNone; }
  double latency_ms() const {
    return static_cast<double>(done_ns - at_ns) / 1e6;
  }
};

/// One phase of load (warm-up, fixed-rate window, capacity probe,
/// saturation run).
struct Phase {
  /// Open loop: ascending at_ns. Closed loop (in_flight > 0): a pool of
  /// queries; each is stamped at_ns when sent, the pool is cut to the
  /// requests sent, and at_ns is the send time.
  std::vector<Request> reqs;
  /// > 0: closed loop keeping this many requests in flight until
  /// `closed_ns` after the start.
  unsigned in_flight = 0;
  std::int64_t closed_ns = 0;
  std::uint32_t id_base = 0;  // req_id of reqs[i] is id_base + i
  /// Steady-clock ns of offset 0; run() picks "now + 1 ms" when left 0.
  std::int64_t start_ns = 0;
  std::uint64_t resent = 0;
};

/// Monotonic ns (the steady clock the spans and phases share).
std::int64_t now_ns();

class OpenLoopClient {
 public:
  /// Connects `conns` (1..4) sockets to 127.0.0.1:port; throws on failure.
  OpenLoopClient(std::uint16_t port, unsigned conns);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Sends the requests of `phase` (on schedule, or closed loop) and
  /// returns once each is answered or 1 s past its send time.
  void run(Phase& phase);

  /// Records one "load" span per answered request (schedule to answer)
  /// while set; null turns recording off.
  void set_tracer(Tracer* t) { tracer_ = t; }

  /// Reconnects until each of two SO_REUSEPORT shards holds half of the
  /// connections (the kernel places each connection by a hash, so four
  /// can land on one shard and halve the fleet). Placement is read from
  /// the shards' kStats counters: with no other traffic, pings sent on one
  /// connection raise requests_ok on exactly the shard that holds it.
  /// Call between phases; false when the fleet did not answer.
  bool balance_two_shards();

  /// Sends `queries` pipelined on each connection in turn and waits for
  /// every answer, so each shard behind the connections runs each query.
  /// Call between phases; false when an answer is missing or not kOk.
  bool broadcast(const std::vector<Query>& queries);

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::size_t out_off = 0;
    std::uint32_t outstanding = 0;
    std::int64_t reconnect_at = 0;  // while fd < 0
    bool want_write = false;
  };

  bool connect_conn(std::size_t c);
  /// Blocking: sends `frames` on `c` and returns `replies` response
  /// payloads (fewer on error or after 5 s). Between phases only.
  std::vector<std::string> exchange(std::size_t c, const std::string& frames,
                                    std::size_t replies);
  /// requests_ok of the shard behind each connection.
  bool ok_counts(std::vector<std::uint64_t>& out);
  void lose_conn(std::size_t c);
  void dispatch(std::size_t i);
  void flush(std::size_t c);
  void read_conn(std::size_t c);
  void watch_write(std::size_t c, bool on);

  std::uint16_t port_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::uint32_t next_id_ = 1;
  Tracer* tracer_ = nullptr;

  // State of the phase being run.
  Phase* phase_ = nullptr;
  std::size_t answered_ = 0;
  std::size_t next_ = 0;
  std::vector<std::size_t> pending_;  // waiting for a live connection
};

}  // namespace pconn::e2e
