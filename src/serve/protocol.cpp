#include "serve/protocol.h"

#include <cstring>

#include "core/error.h"

namespace spiketune::serve {

namespace {

// Little-endian scalar append/read.  The build targets little-endian hosts
// (x86-64 / AArch64); the magic check rejects a byte-swapped peer.
template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void put_floats(std::vector<std::uint8_t>& out, const std::vector<float>& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(float));
}

template <typename T>
T get(const std::vector<std::uint8_t>& in, std::size_t& off,
      const char* what) {
  ST_REQUIRE(off + sizeof(T) <= in.size(),
             std::string("truncated payload reading ") + what);
  T v;
  std::memcpy(&v, in.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

/// Reads the `n` floats that end the payload at `off`.  The callers have
/// already checked that exactly n * 4 bytes remain; the n == 0 guard keeps
/// a null data() pointer out of memcpy.
std::vector<float> get_floats(const std::vector<std::uint8_t>& in,
                              std::size_t off, std::size_t n) {
  std::vector<float> v(n);
  if (n > 0) std::memcpy(v.data(), in.data() + off, n * sizeof(float));
  return v;
}

/// The infer-request layout starting at `off`: shared by INFER and the
/// body of STREAM_STEP.
InferRequest get_request_body(std::uint64_t request_id,
                              const std::vector<std::uint8_t>& payload,
                              std::size_t off) {
  InferRequest r;
  r.request_id = request_id;
  r.num_steps = get<std::uint32_t>(payload, off, "num_steps");
  r.elems_per_step = get<std::uint32_t>(payload, off, "elems_per_step");
  r.deadline_us = get<std::uint64_t>(payload, off, "deadline_us");
  const std::size_t n =
      static_cast<std::size_t>(r.num_steps) * r.elems_per_step;
  // Checked by division: n * sizeof(float) can wrap modulo 2^64 for hostile
  // dims (e.g. num_steps = elems_per_step = 2^31), which would let a tiny
  // payload pass and turn resize(n) into an allocation bomb.
  const std::size_t body = payload.size() - off;
  ST_REQUIRE(body % sizeof(float) == 0 && body / sizeof(float) == n,
             "request payload size does not match num_steps * elems");
  r.data = get_floats(payload, off, n);
  return r;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kInternalError:
      return "internal-error";
  }
  return "unknown";
}

void encode_header(const FrameHeader& h, std::uint8_t out[kHeaderBytes]) {
  std::uint8_t* p = out;
  std::memcpy(p, &h.magic, 4);
  p += 4;
  const std::uint32_t kind_ver =
      static_cast<std::uint32_t>(h.kind) | (kProtocolVersion << 8);
  std::memcpy(p, &kind_ver, 4);
  p += 4;
  std::memcpy(p, &h.request_id, 8);
  p += 8;
  std::memcpy(p, &h.payload_bytes, 4);
}

FrameHeader decode_header(const std::uint8_t in[kHeaderBytes]) {
  FrameHeader h;
  const std::uint8_t* p = in;
  std::memcpy(&h.magic, p, 4);
  p += 4;
  ST_REQUIRE(h.magic == kMagic,
             "bad frame magic (not a spiketune-serve peer, or wrong "
             "endianness)");
  std::uint32_t kind_ver = 0;
  std::memcpy(&kind_ver, p, 4);
  p += 4;
  const std::uint32_t kind = kind_ver & 0xffu;
  const std::uint32_t version = kind_ver >> 8;
  ST_REQUIRE(version == kProtocolVersion,
             "frame version " + std::to_string(version) +
                 " is not protocol version " +
                 std::to_string(kProtocolVersion));
  ST_REQUIRE(kind >= 1 && kind <= 8, "unknown frame kind " +
                                         std::to_string(kind));
  h.kind = static_cast<FrameKind>(kind);
  std::memcpy(&h.request_id, p, 8);
  p += 8;
  std::memcpy(&h.payload_bytes, p, 4);
  ST_REQUIRE(h.payload_bytes <= kMaxPayloadBytes,
             "frame payload of " + std::to_string(h.payload_bytes) +
                 " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
                 "-byte protocol cap");
  return h;
}

namespace {

// Payload encoders.  Each frame function below writes its header in front
// of the payload in one buffer; the payload layouts are the ones the
// decode_* functions read.

void put_request_body(std::vector<std::uint8_t>& out, const InferRequest& r) {
  ST_REQUIRE(r.data.size() == static_cast<std::size_t>(r.num_steps) *
                                  r.elems_per_step,
             "request data does not match num_steps * elems_per_step");
  put(out, r.num_steps);
  put(out, r.elems_per_step);
  put(out, r.deadline_us);
  put_floats(out, r.data);
}

/// Starts a frame: the header with `payload_bytes` still zero, and room
/// reserved for `payload_hint` payload bytes.
std::vector<std::uint8_t> begin_frame(FrameKind kind, std::uint64_t request_id,
                                      std::size_t payload_hint) {
  std::vector<std::uint8_t> out(kHeaderBytes);
  out.reserve(kHeaderBytes + payload_hint);
  FrameHeader h;
  h.kind = kind;
  h.request_id = request_id;
  encode_header(h, out.data());
  return out;
}

/// Seals a frame: fills in payload_bytes, the header's last field.
std::vector<std::uint8_t> end_frame(std::vector<std::uint8_t> out) {
  const auto payload_bytes =
      static_cast<std::uint32_t>(out.size() - kHeaderBytes);
  std::memcpy(out.data() + kHeaderBytes - 4, &payload_bytes, 4);
  return out;
}

std::vector<std::uint8_t> stream_control_frame(FrameKind kind,
                                               const StreamControl& c) {
  ST_REQUIRE(c.stream_id != 0, "stream_id 0 is reserved");
  std::vector<std::uint8_t> out = begin_frame(kind, c.request_id, 8);
  put(out, c.stream_id);
  return end_frame(std::move(out));
}

}  // namespace

std::vector<std::uint8_t> infer_request_frame(const InferRequest& r) {
  std::vector<std::uint8_t> out =
      begin_frame(FrameKind::kInferRequest, r.request_id,
                  16 + r.data.size() * sizeof(float));
  put_request_body(out, r);
  return end_frame(std::move(out));
}

std::vector<std::uint8_t> infer_response_frame(const InferResponse& r) {
  ST_REQUIRE(r.spike_counts.size() == r.out_features,
             "response spike_counts does not match out_features");
  std::vector<std::uint8_t> out =
      begin_frame(FrameKind::kInferResponse, r.request_id,
                  32 + r.spike_counts.size() * sizeof(float));
  put(out, r.out_features);
  put(out, r.batch);
  put(out, r.queue_ns);
  put(out, r.assemble_ns);
  put(out, r.infer_ns);
  put_floats(out, r.spike_counts);
  return end_frame(std::move(out));
}

std::vector<std::uint8_t> error_frame(const ErrorResponse& r) {
  std::vector<std::uint8_t> out =
      begin_frame(FrameKind::kError, r.request_id, 8 + r.message.size());
  put(out, static_cast<std::uint32_t>(r.code));
  put(out, static_cast<std::uint32_t>(r.message.size()));
  out.insert(out.end(), r.message.begin(), r.message.end());
  return end_frame(std::move(out));
}

std::vector<std::uint8_t> stat_request_frame(std::uint64_t request_id) {
  return end_frame(begin_frame(FrameKind::kStatRequest, request_id, 0));
}

std::vector<std::uint8_t> stat_response_frame(std::uint64_t request_id,
                                              const std::string& json) {
  std::vector<std::uint8_t> out =
      begin_frame(FrameKind::kStatResponse, request_id, json.size());
  out.insert(out.end(), json.begin(), json.end());
  return end_frame(std::move(out));
}

std::vector<std::uint8_t> stream_open_frame(const StreamControl& c) {
  return stream_control_frame(FrameKind::kStreamOpen, c);
}

std::vector<std::uint8_t> stream_step_frame(const StreamStepRequest& r) {
  ST_REQUIRE(r.stream_id != 0, "stream_id 0 is reserved");
  // The chunk body is exactly the infer-request layout, so the batcher and
  // workers treat a step like any other request after the stream id is
  // peeled off.
  std::vector<std::uint8_t> out =
      begin_frame(FrameKind::kStreamStep, r.request.request_id,
                  24 + r.request.data.size() * sizeof(float));
  put(out, r.stream_id);
  put_request_body(out, r.request);
  return end_frame(std::move(out));
}

std::vector<std::uint8_t> stream_close_frame(const StreamControl& c) {
  return stream_control_frame(FrameKind::kStreamClose, c);
}

std::vector<std::uint8_t> stream_close_reply_frame(const StreamCloseReply& r) {
  std::vector<std::uint8_t> out =
      begin_frame(FrameKind::kStreamClose, r.request_id,
                  20 + r.cumulative_counts.size() * sizeof(float));
  put(out, r.stream_id);
  put(out, r.steps_done);
  put(out, static_cast<std::uint32_t>(r.cumulative_counts.size()));
  put_floats(out, r.cumulative_counts);
  return end_frame(std::move(out));
}

InferRequest decode_request(std::uint64_t request_id,
                            const std::vector<std::uint8_t>& payload) {
  return get_request_body(request_id, payload, 0);
}

InferResponse decode_response(std::uint64_t request_id,
                              const std::vector<std::uint8_t>& payload) {
  InferResponse r;
  r.request_id = request_id;
  std::size_t off = 0;
  r.out_features = get<std::uint32_t>(payload, off, "out_features");
  r.batch = get<std::uint32_t>(payload, off, "batch");
  r.queue_ns = get<std::uint64_t>(payload, off, "queue_ns");
  r.assemble_ns = get<std::uint64_t>(payload, off, "assemble_ns");
  r.infer_ns = get<std::uint64_t>(payload, off, "infer_ns");
  ST_REQUIRE(payload.size() == off + r.out_features * sizeof(float),
             "response payload size does not match out_features");
  r.spike_counts = get_floats(payload, off, r.out_features);
  return r;
}

ErrorResponse decode_error(std::uint64_t request_id,
                           const std::vector<std::uint8_t>& payload) {
  ErrorResponse r;
  r.request_id = request_id;
  std::size_t off = 0;
  const auto code = get<std::uint32_t>(payload, off, "error code");
  ST_REQUIRE(code >= 1 && code <= 5, "unknown error code");
  r.code = static_cast<ErrorCode>(code);
  const auto len = get<std::uint32_t>(payload, off, "message length");
  ST_REQUIRE(payload.size() == off + len, "error message truncated");
  r.message.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                   payload.end());
  return r;
}

StreamControl decode_stream_control(std::uint64_t request_id,
                                    const std::vector<std::uint8_t>& payload) {
  StreamControl c;
  c.request_id = request_id;
  std::size_t off = 0;
  c.stream_id = get<std::uint64_t>(payload, off, "stream_id");
  ST_REQUIRE(payload.size() == off, "stream control payload has extra bytes");
  ST_REQUIRE(c.stream_id != 0, "stream_id 0 is reserved");
  return c;
}

StreamStepRequest decode_stream_step(std::uint64_t request_id,
                                     const std::vector<std::uint8_t>& payload) {
  StreamStepRequest r;
  std::size_t off = 0;
  r.stream_id = get<std::uint64_t>(payload, off, "stream_id");
  ST_REQUIRE(r.stream_id != 0, "stream_id 0 is reserved");
  r.request = get_request_body(request_id, payload, off);
  return r;
}

StreamCloseReply decode_stream_close_reply(
    std::uint64_t request_id, const std::vector<std::uint8_t>& payload) {
  StreamCloseReply r;
  r.request_id = request_id;
  std::size_t off = 0;
  r.stream_id = get<std::uint64_t>(payload, off, "stream_id");
  r.steps_done = get<std::uint64_t>(payload, off, "steps_done");
  const auto n = get<std::uint32_t>(payload, off, "out_features");
  ST_REQUIRE(payload.size() == off + n * sizeof(float),
             "close reply payload size does not match out_features");
  r.cumulative_counts = get_floats(payload, off, n);
  return r;
}

std::string decode_stat(const std::vector<std::uint8_t>& payload) {
  return std::string(payload.begin(), payload.end());
}

}  // namespace spiketune::serve
