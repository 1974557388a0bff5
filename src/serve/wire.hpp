// Daemon (`cfpm serve`) wire protocol: length-prefixed, versioned, CRC-checked frames.
//
// A frame is a fixed 16-byte binary header followed by a text payload:
//
//   bytes 0..3   magic "CFPM"
//   bytes 4..5   protocol version (u16 LE) — kProtocolVersion below
//   bytes 6..7   message type (u16 LE, MsgType)
//   bytes 8..11  payload length (u32 LE)
//   bytes 12..15 CRC-32 of the payload (u32 LE)
//
// The header makes framing self-describing (a reader never scans for
// delimiters and a short read is detected, not misparsed); the CRC rejects
// torn writes from a crashed peer; the version field rejects a client from
// a different release instead of misinterpreting it. Payloads themselves
// are line-oriented text: `field value` lines in fixed order, doubles
// through support/parse format_double (shortest round-trip form), netlists
// and traces as counted byte blocks. Text payloads keep the protocol
// greppable in captures and reuse the repo's hardened number parsing.
//
// Every decode_* throws cfpm::ParseError on malformed input and
// cfpm::Error on a protocol-version mismatch; encode/decode pairs
// round-trip bit-exactly (tested).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/service.hpp"
#include "sim/sequence.hpp"

namespace cfpm::serve::wire {

/// 2: build and chip requests dropped their thread-count and retry lines.
/// 3: build, eval, trace and chip payloads dropped their `version` line
/// (this header field is the one version check).
/// 4: the build reply dropped its `attempts` line.
/// 5: the build request dropped its `order`, `reorder-passes`, `approx`,
/// `char-vectors` and `char-seed` lines and carries ADD kinds (0, 1) only.
inline constexpr std::uint16_t kProtocolVersion = 5;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr char kMagic[4] = {'C', 'F', 'P', 'M'};
/// Upper bound on a payload a peer may declare (64 MiB): a corrupt length
/// field must not become an allocation bomb.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;

enum class MsgType : std::uint16_t {
  kBuildRequest = 1,
  kBuildReply = 2,
  kEvalRequest = 3,
  kEvalReply = 4,
  kTraceRequest = 5,
  kTraceReply = 6,
  kStatsRequest = 7,
  kStatsReply = 8,
  kPing = 9,
  kPong = 10,
  kShutdownRequest = 11,
  kShutdownReply = 12,
  kError = 13,
  kChipRequest = 14,
  kChipReply = 15,
};

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Serializes a complete frame (header + payload).
std::string encode_frame(MsgType type, std::string_view payload);

/// Parses and validates the 16-byte header; returns the declared payload
/// length via `payload_length`. Throws ParseError on bad magic/length/type
/// and Error on a version mismatch.
MsgType decode_header(std::string_view header, std::uint32_t& payload_length,
                      std::uint32_t& payload_crc);

/// Validates a received payload against the header CRC (ParseError on
/// mismatch — the frame was torn or corrupted in transit).
void check_payload(std::string_view payload, std::uint32_t expected_crc);

// ----- blocking fd transport (Unix socket / pipe) --------------------------

/// Writes one frame to `fd`, looping over partial writes. Throws IoError.
void write_frame(int fd, MsgType type, std::string_view payload);

/// Reads one frame from `fd`. Returns false on clean EOF at a frame
/// boundary (peer closed); throws IoError on mid-frame EOF or read errors,
/// ParseError/Error on header or CRC violations.
bool read_frame(int fd, Frame& out);

// ----- message payload codecs ----------------------------------------------

// Requests carry the service-layer structs; an eval/trace request names its
// model by content id (the daemon resolves it in the registry). Eval and
// trace requests share EvalQuery for the common addressing/deadline fields.

struct EvalQuery {
  service::ModelId id;
  service::EvalRequest request;
};

struct TraceQuery {
  service::ModelId id;
  sim::InputSequence trace{1, 0};
};

struct StatsReply {
  std::uint64_t models = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t builds = 0;
  std::vector<std::string> model_lines;  ///< "<hex-id> <nodes> <circuit>"
};

std::string encode_build_request(const service::BuildRequest& req);
service::BuildRequest decode_build_request(std::string_view payload);

std::string encode_build_reply(const service::BuildReply& reply);
/// The decoded reply carries no model object (the daemon keeps it); only
/// id/status/nodes/cache_hit/outcome cross the wire.
service::BuildReply decode_build_reply(std::string_view payload);

std::string encode_eval_query(const EvalQuery& query);
EvalQuery decode_eval_query(std::string_view payload);

std::string encode_eval_reply(const service::EvalReply& reply);
service::EvalReply decode_eval_reply(std::string_view payload);

std::string encode_trace_query(const TraceQuery& query);
TraceQuery decode_trace_query(std::string_view payload);

std::string encode_stats_reply(const StatsReply& reply);
StatsReply decode_stats_reply(std::string_view payload);

std::string encode_error(const service::ErrorPayload& error);
service::ErrorPayload decode_error(std::string_view payload);

std::string encode_chip_request(const service::ChipRequest& req);
service::ChipRequest decode_chip_request(std::string_view payload);

std::string encode_chip_reply(const service::ChipReply& reply);
service::ChipReply decode_chip_reply(std::string_view payload);

}  // namespace cfpm::serve::wire
