// Wire protocol of the serving front-end (docs/server.md).
//
// Every message is a length-prefixed binary frame:
//
//   frame            = u32 LE payload length + payload
//   request payload  = u8 opcode, u32 LE req_id, args
//   response payload = ResponseHeader + body
//
// Every encoder lives here and is shared by the server workers, the
// blocking client, the bench oracle, and the tests — "responses
// byte-identical to direct session calls" is enforced by encoding the
// direct result through these same functions and comparing bytes.
//
// All integers are little-endian and accessed through memcpy (frames have
// no alignment guarantee). Request frames are tiny and exactly sized per
// opcode; anything else is malformed and rejected at the parse boundary.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "graph/profile.hpp"
#include "timetable/types.hpp"

namespace pconn {

/// Request opcodes. Args listed are the exact payload after the
/// u8 opcode + u32 req_id prefix.
enum class Opcode : std::uint8_t {
  kPing = 0,             // no args
  kEarliestArrival = 1,  // u32 source, u32 departure, u32 target
  kProfile = 2,          // u32 source, u32 target
  kStats = 3,            // no args
};

/// Response status — the typed half of the resilience ladder. Every
/// request, however malformed or ill-timed, gets exactly one of these.
enum class Status : std::uint8_t {
  kOk = 0,
  kMalformed = 1,         // unparseable frame; the connection then closes
  kBadRequest = 2,        // parseable but invalid (station out of range)
  kOverloaded = 3,        // queue full: shed; body carries retry_after_ms
  kDeadlineExceeded = 4,  // request aged out before/while executing
  kShuttingDown = 5,      // server draining; no new work admitted
  kInternal = 6,          // worker fault; the connection survives
};

const char* status_name(Status s);

/// Fixed response prefix (16 bytes on the wire, in this order):
/// u8 status, u8 opcode, u8 degraded, u8 pad, u32 req_id, u64 epoch.
struct ResponseHeader {
  Status status = Status::kInternal;
  Opcode opcode = Opcode::kPing;
  bool degraded = false;  // answered by the flat engines (still exact)
  std::uint32_t req_id = 0;
  std::uint64_t epoch = 0;
};

constexpr std::size_t kFrameHeaderBytes = 4;    // u32 payload length
constexpr std::size_t kRequestPrefixBytes = 5;  // opcode + req_id
constexpr std::size_t kResponseHeaderBytes = 16;

/// Exact request payload length per opcode; 0 for an unknown opcode.
std::size_t request_payload_bytes(Opcode op);

// --- little-endian primitives (append / read at offset) -----------------

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}
inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}
inline std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline std::uint64_t get_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// --- request encoders (client side) -------------------------------------

std::string encode_ping(std::uint32_t req_id);
std::string encode_earliest_arrival(std::uint32_t req_id, StationId source,
                                    Time departure, StationId target);
std::string encode_profile(std::uint32_t req_id, StationId source,
                           StationId target);
std::string encode_stats(std::uint32_t req_id);

// --- response encoders (server side + byte-identity oracles) ------------

/// Appends the framed response header with an empty body. Used directly
/// for kPing replies and every non-kOk status without a body.
std::string encode_response_header(const ResponseHeader& h,
                                   std::size_t body_bytes = 0);

std::string encode_ea_response(const ResponseHeader& h, Time arrival);
std::string encode_profile_response(const ResponseHeader& h,
                                    const Profile& profile);
std::string encode_overloaded(const ResponseHeader& h,
                              std::uint32_t retry_after_ms);
/// kStats body: five u64 — requests_ok, requests_shed, requests_deadline,
/// requests_malformed, queue_depth.
std::string encode_stats_response(const ResponseHeader& h,
                                  std::uint64_t requests_ok,
                                  std::uint64_t requests_shed,
                                  std::uint64_t requests_deadline,
                                  std::uint64_t requests_malformed,
                                  std::uint64_t queue_depth);

// --- response decoder (client side) -------------------------------------

/// One decoded response frame; body fields are populated per status/opcode.
struct DecodedResponse {
  ResponseHeader header;
  Time arrival = kInfTime;            // kOk + kEarliestArrival
  Profile profile;                    // kOk + kProfile
  std::uint32_t retry_after_ms = 0;   // kOverloaded
  std::uint64_t stats[5] = {0, 0, 0, 0, 0};  // kOk + kStats
};

/// Decodes the payload of one response frame (length prefix already
/// stripped). nullopt when the payload is structurally invalid.
std::optional<DecodedResponse> decode_response(const char* payload,
                                               std::size_t len);

}  // namespace pconn
