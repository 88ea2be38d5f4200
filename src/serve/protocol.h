// Wire protocol for the spiketune serving daemon.
//
// Framed binary messages over a reliable byte stream (TCP).  Every frame is
// a fixed 20-byte header followed by `payload_bytes` of payload:
//
//   u32 magic        'STSV' (0x53545356) — rejects stray connections early
//   u32 kind_ver     low byte: FrameKind; next byte: protocol version (3)
//   u64 request_id   client-chosen, echoed verbatim on the response
//   u32 payload_bytes
//
// There is one protocol version, 3.  decode_header rejects any other
// version byte exactly as it rejects a bad magic.  An infer request always
// carries a `deadline_us` budget (0 = none); the streaming opcodes
// (STREAM_OPEN / STREAM_STEP / STREAM_CLOSE, kinds 6-8) let a client open a
// persistent stream under a 64-bit id, feed it spike chunks incrementally
// (the daemon keeps the stream's membrane state between chunks — see
// infer/stream.h), and read cumulative totals back at close.
//
// One inference request carries ONE sample's spike window, shaped
// [num_steps, elems_per_step]; the daemon coalesces concurrent requests
// into a batch along N under its latency budget, which is invisible to the
// client except in the response's `batch` diagnostic.  A STREAM_STEP chunk
// rides the same batcher: chunks with equal num_steps from *different*
// streams coalesce into one batch (two chunks of one stream never share a
// batch — state must advance in order).  Integers and floats are host-order
// little-endian (serving is same-machine / same-arch; the magic doubles as
// an endianness check since its byte-swapped form is rejected).
//
// Responses carry the [out_features] spike-count vector for the sample —
// bitwise identical to what a direct InferenceSession::run on the same
// window returns (the serve parity gate in bench/serve_loadgen holds the
// daemon to that), plus queue/inference timing diagnostics.  STREAM_STEP is
// answered with the same infer-response frame (that chunk's counts);
// STREAM_OPEN with an echo ack; STREAM_CLOSE with the stream's lifetime
// totals.
//
// Frames are built one way on both sides: the *_frame functions below
// return a complete header + payload buffer, which the client sends with
// one write and the daemon hands to Connection::write_frame.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spiketune::serve {

inline constexpr std::uint32_t kMagic = 0x53545356u;  // "STSV"

/// The protocol version every frame carries in the second byte of its kind
/// word.  It is the only version this daemon speaks.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// Hard upper bound on a frame's payload.  `payload_bytes` arrives from an
/// untrusted peer, so decode_header rejects anything above this before any
/// buffer is sized — otherwise one hostile header makes the daemon allocate
/// up to ~4 GiB per connection.  64 MiB is generous for legitimate traffic:
/// the largest real payload is one request window (16 bytes + num_steps *
/// elems_per_step floats), and this covers ~16M floats.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class FrameKind : std::uint32_t {
  kInferRequest = 1,
  kInferResponse = 2,
  kError = 3,
  kStatRequest = 4,   // empty payload: "snapshot your live stats"
  kStatResponse = 5,  // payload: one UTF-8 JSON document
  // Streaming opcodes.  Direction disambiguates request vs
  // reply: the daemon acks kStreamOpen with an echo frame of the same kind
  // and answers kStreamClose with a totals frame of the same kind.
  kStreamOpen = 6,   // c->s: {stream_id}; s->c ack: {stream_id}
  kStreamStep = 7,   // c->s: stream chunk; answered with kInferResponse
  kStreamClose = 8,  // c->s: {stream_id}; s->c: lifetime totals
};

/// Why the daemon refused a request.
enum class ErrorCode : std::uint32_t {
  kOverloaded = 1,        // admission control: queue at max depth — back off
  kBadRequest = 2,        // malformed frame or shape mismatch with the model
  kShuttingDown = 3,      // daemon is draining; no new work accepted
  kDeadlineExceeded = 4,  // deadline_us expired before inference — shed
  kInternalError = 5,     // inference failed for this request only
};

const char* error_code_name(ErrorCode code);

struct FrameHeader {
  std::uint32_t magic = kMagic;
  FrameKind kind = FrameKind::kInferRequest;
  std::uint64_t request_id = 0;
  std::uint32_t payload_bytes = 0;
};
inline constexpr std::size_t kHeaderBytes = 20;

/// One sample's spike window: [num_steps, elems_per_step] floats.
/// `deadline_us` is the client's end-to-end latency budget
/// measured from the instant the daemon finishes reading the frame; 0 means
/// no deadline.  A request still queued when its budget expires is shed
/// with kDeadlineExceeded instead of wasting inference on a stale answer.
struct InferRequest {
  std::uint64_t request_id = 0;
  std::uint32_t num_steps = 0;
  std::uint32_t elems_per_step = 0;
  std::uint64_t deadline_us = 0;  // 0 = no deadline
  std::vector<float> data;        // num_steps * elems_per_step
};

struct InferResponse {
  std::uint64_t request_id = 0;
  std::uint32_t out_features = 0;
  std::uint32_t batch = 0;          // requests coalesced into this run
  std::uint64_t queue_ns = 0;       // admission -> batch assembly
  std::uint64_t assemble_ns = 0;    // batch tensor packing
  std::uint64_t infer_ns = 0;       // the session run this request rode in
  std::vector<float> spike_counts;  // out_features
};

struct ErrorResponse {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};

// --- streaming messages --------------------------------------------------

/// STREAM_OPEN / STREAM_CLOSE request, and the STREAM_OPEN ack: just the
/// 64-bit stream id (nonzero; 0 is the "plain request" sentinel).
struct StreamControl {
  std::uint64_t request_id = 0;
  std::uint64_t stream_id = 0;
};

/// STREAM_STEP: one chunk of an open stream's spike input — an InferRequest
/// window plus the stream it advances.  The daemon applies the chunk to the
/// stream's persistent state and answers with that chunk's spike counts as
/// a normal kInferResponse.
struct StreamStepRequest {
  std::uint64_t stream_id = 0;
  InferRequest request;
};

/// STREAM_CLOSE reply: the stream's lifetime totals (what one whole-window
/// run over every chunk would have returned).
struct StreamCloseReply {
  std::uint64_t request_id = 0;
  std::uint64_t stream_id = 0;
  std::uint64_t steps_done = 0;
  std::vector<float> cumulative_counts;  // out_features
};

/// Header <-> raw bytes.  decode_header throws InvalidArgument on a bad
/// magic (including byte-swapped: wrong-endian peer), a version byte other
/// than kProtocolVersion (including the zero byte of pre-versioning
/// peers), an unknown kind, or a payload_bytes above kMaxPayloadBytes.
void encode_header(const FrameHeader& h, std::uint8_t out[kHeaderBytes]);
FrameHeader decode_header(const std::uint8_t in[kHeaderBytes]);

/// Complete frames (header + payload, one contiguous buffer ready for
/// send()).  Each request_id comes from the message itself.
std::vector<std::uint8_t> infer_request_frame(const InferRequest& r);
std::vector<std::uint8_t> infer_response_frame(const InferResponse& r);
std::vector<std::uint8_t> error_frame(const ErrorResponse& r);
std::vector<std::uint8_t> stat_request_frame(std::uint64_t request_id);
std::vector<std::uint8_t> stat_response_frame(std::uint64_t request_id,
                                              const std::string& json);
/// Streaming frames, request and reply directions.  The open ack is an echo
/// of the open frame, so stream_open_frame builds both.
std::vector<std::uint8_t> stream_open_frame(const StreamControl& c);
std::vector<std::uint8_t> stream_step_frame(const StreamStepRequest& r);
std::vector<std::uint8_t> stream_close_frame(const StreamControl& c);
std::vector<std::uint8_t> stream_close_reply_frame(const StreamCloseReply& r);

/// Payload decoders; throw InvalidArgument on truncated or inconsistent
/// payloads (e.g. num_steps * elems disagreeing with the payload size).
InferRequest decode_request(std::uint64_t request_id,
                            const std::vector<std::uint8_t>& payload);
InferResponse decode_response(std::uint64_t request_id,
                              const std::vector<std::uint8_t>& payload);
ErrorResponse decode_error(std::uint64_t request_id,
                           const std::vector<std::uint8_t>& payload);

/// Streaming payload decoders (kinds 6-8, both directions).
/// decode_stream_control reads an open/close request or an open ack;
/// decode_stream_step reuses the infer-request layout after the stream id.
StreamControl decode_stream_control(std::uint64_t request_id,
                                    const std::vector<std::uint8_t>& payload);
StreamStepRequest decode_stream_step(std::uint64_t request_id,
                                     const std::vector<std::uint8_t>& payload);
StreamCloseReply decode_stream_close_reply(
    std::uint64_t request_id, const std::vector<std::uint8_t>& payload);

/// STAT payloads are a raw UTF-8 JSON document (see serve::Server::
/// stat_json for the schema); this just moves bytes -> string.
std::string decode_stat(const std::vector<std::uint8_t>& payload);

}  // namespace spiketune::serve
