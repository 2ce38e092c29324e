// BlockingClient — the minimal synchronous client of the serving
// front-end, used by tests/server_test.cpp, bench/bench_server.cpp, and
// examples/serve_scenario.cpp — and RetryingClient, the flaky-server
// wrapper the chaos harness drives (tests/supervisor_test.cpp,
// bench/bench_shard.cpp).
//
// One TCP connection, one outstanding request at a time: each call
// encodes through src/server/protocol.hpp, writes the frame, and blocks
// (with a poll() timeout) for the response. send_raw()/recv_frame()
// expose the raw byte layer for the fuzz sweep and the byte-identity
// oracle.
//
// Failures are typed, not silent: every nullopt return leaves
// last_error() saying WHY — a timeout, an orderly close at a frame
// boundary, a connection reset, or a disconnect mid-frame (the short
// read that would otherwise masquerade as "no response"). The chaos
// harness asserts on exactly this distinction: a killed shard may reset
// or short-read its connections, but a survivor must never.
//
// Not a production client — it exists so every rung of the server's
// resilience ladder can be exercised from a few lines of test code.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "server/protocol.hpp"
#include "util/rng.hpp"

namespace pconn {

/// Why the last BlockingClient call returned nullopt.
enum class ClientError : std::uint8_t {
  kNone = 0,
  kConnect = 1,    // could not (re)connect
  kTimeout = 2,    // poll() timeout waiting for the response
  kClosed = 3,     // orderly close at a frame boundary
  kReset = 4,      // ECONNRESET / EPIPE — the peer died under us
  kShortRead = 5,  // disconnect MID-frame: bytes arrived, then the cut
  kProtocol = 6,   // undecodable/absurd frame
};

const char* client_error_name(ClientError e);

class BlockingClient {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  BlockingClient(const std::string& host, std::uint16_t port,
                 double timeout_ms = 10'000.0);
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// nullopt on connection loss / timeout / undecodable frame — see
  /// last_error() for which.
  std::optional<DecodedResponse> ping();
  std::optional<DecodedResponse> earliest_arrival(StationId source,
                                                  Time departure,
                                                  StationId target);
  std::optional<DecodedResponse> profile(StationId source, StationId target);
  std::optional<DecodedResponse> server_stats();

  // --- raw byte layer (fuzzing, byte-identity) --------------------------

  /// True when all bytes were written.
  bool send_raw(const std::string& bytes);
  /// One length-prefixed frame payload, or nullopt on loss/timeout.
  std::optional<std::string> recv_frame();

  /// True until a send/recv observed a closed connection.
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Why the most recent failing call failed (kNone after a success).
  ClientError last_error() const { return last_error_; }

 private:
  std::optional<DecodedResponse> round_trip(const std::string& frame);
  bool recv_exact(char* out, std::size_t n, bool mid_frame);

  int fd_ = -1;
  double timeout_ms_;
  std::uint32_t next_req_id_ = 1;
  ClientError last_error_ = ClientError::kNone;
};

/// Bounded-retry policy of RetryingClient. Backoff between reconnects is
/// the same decorrelated-jitter recurrence the live-update retry path and
/// the supervisor's restart scheduler use:
/// sleep_k = min(cap, uniform(base, 3 * sleep_{k-1})).
struct RetryPolicy {
  std::uint32_t max_attempts = 5;    // per call, first try included
  double backoff_ms = 5.0;           // base of the jitter recurrence
  double backoff_cap_ms = 500.0;     // per-sleep cap
  bool honor_retry_after = true;     // sleep the kOverloaded hint
  double retry_after_cap_ms = 500.0; // never sleep a hint longer than this
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// A BlockingClient that survives a flaky server: it reconnects (with
/// capped decorrelated-jitter backoff) on connection loss — ECONNRESET,
/// EPIPE, orderly close, mid-frame disconnect — and honors the server's
/// Retry-After hint on kOverloaded before re-sending. Safe for the
/// queries it wraps because they are idempotent reads. nullopt only after
/// max_attempts failures; last_error() then says why the final one died.
class RetryingClient {
 public:
  RetryingClient(std::string host, std::uint16_t port,
                 RetryPolicy policy = {}, double timeout_ms = 10'000.0);

  std::optional<DecodedResponse> ping();
  std::optional<DecodedResponse> earliest_arrival(StationId source,
                                                  Time departure,
                                                  StationId target);
  std::optional<DecodedResponse> profile(StationId source, StationId target);

  ClientError last_error() const { return last_error_; }
  /// Reconnects performed over the client's lifetime (first connect not
  /// counted) — the chaos harness's "how often did my shard die" probe.
  std::uint64_t reconnects() const { return reconnects_; }
  /// kOverloaded responses whose Retry-After hint was slept and retried.
  std::uint64_t overload_waits() const { return overload_waits_; }

 private:
  template <typename Fn>
  std::optional<DecodedResponse> with_retry(Fn&& call);
  bool ensure_connected();
  void backoff_sleep();

  std::string host_;
  std::uint16_t port_;
  RetryPolicy policy_;
  double timeout_ms_;
  std::unique_ptr<BlockingClient> client_;
  Rng rng_;
  double prev_backoff_ms_ = 0.0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t overload_waits_ = 0;
  bool ever_connected_ = false;
  ClientError last_error_ = ClientError::kNone;
};

}  // namespace pconn
