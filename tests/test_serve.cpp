// Serving-daemon tests: wire protocol round-trips, dynamic-batcher
// admission/coalescing semantics, and end-to-end Server integration over
// real TCP connections — including the bitwise parity contract (a served
// response equals a direct InferenceSession run on the same window,
// whatever batch it rode in) and drain-safe shutdown with requests in
// flight.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/rng.h"
#include "infer/session.h"
#include "obs/signal_flush.h"
#include "obs/spans.h"
#include "obs/telemetry.h"
#include "serve/batcher.h"
#include "serve/fault.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "snn/model_zoo.h"

namespace spiketune::serve {
namespace {

// --- protocol ---------------------------------------------------------------

/// The payload of a complete frame: everything after the header.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + kHeaderBytes, frame.end()};
}

TEST(ServeProtocol, HeaderRoundTrip) {
  FrameHeader h;
  h.kind = FrameKind::kInferResponse;
  h.request_id = 0x1122334455667788ULL;
  h.payload_bytes = 412;
  std::uint8_t raw[kHeaderBytes];
  encode_header(h, raw);
  const FrameHeader back = decode_header(raw);
  EXPECT_EQ(back.magic, kMagic);
  EXPECT_EQ(back.kind, FrameKind::kInferResponse);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_bytes, h.payload_bytes);
}

TEST(ServeProtocol, RejectsBadMagicVersionAndUnknownKind) {
  FrameHeader h;
  std::uint8_t raw[kHeaderBytes];
  encode_header(h, raw);
  std::uint8_t bad[kHeaderBytes];
  std::memcpy(bad, raw, kHeaderBytes);
  bad[0] ^= 0xff;  // corrupt the magic
  EXPECT_THROW(decode_header(bad), InvalidArgument);
  // Byte-swapped magic = wrong-endian peer: also rejected.
  std::memcpy(bad, raw, kHeaderBytes);
  std::swap(bad[0], bad[3]);
  std::swap(bad[1], bad[2]);
  EXPECT_THROW(decode_header(bad), InvalidArgument);
  std::memcpy(bad, raw, kHeaderBytes);
  bad[4] = 0x7f;  // kind outside the enum
  EXPECT_THROW(decode_header(bad), InvalidArgument);
  // Any version byte but 3: 0 is what a pre-versioning peer sends; 1, 2
  // and 4+ are other protocols.
  ASSERT_EQ(raw[5], kProtocolVersion);
  for (const int v : {0, 1, 2, 4, 255}) {
    std::memcpy(bad, raw, kHeaderBytes);
    bad[5] = static_cast<std::uint8_t>(v);
    EXPECT_THROW(decode_header(bad), InvalidArgument) << "version " << v;
  }
  // The upper two bytes of the kind word are reserved zero.
  std::memcpy(bad, raw, kHeaderBytes);
  bad[7] = 1;
  EXPECT_THROW(decode_header(bad), InvalidArgument);
}

TEST(ServeProtocol, HeaderRejectsOversizedPayload) {
  FrameHeader h;
  std::uint8_t raw[kHeaderBytes];
  h.payload_bytes = kMaxPayloadBytes;
  encode_header(h, raw);
  EXPECT_EQ(decode_header(raw).payload_bytes, kMaxPayloadBytes);
  h.payload_bytes = kMaxPayloadBytes + 1;
  encode_header(h, raw);
  EXPECT_THROW(decode_header(raw), InvalidArgument);
  h.payload_bytes = 0xffffffffu;
  encode_header(h, raw);
  EXPECT_THROW(decode_header(raw), InvalidArgument);
}

TEST(ServeProtocol, RejectsOverflowingRequestDims) {
  // num_steps = elems_per_step = 2^31: the element count times
  // sizeof(float) wraps to 0 modulo 2^64, so a multiply-based size check
  // would accept this 16-byte payload and then die inside resize().  The
  // decoder must reject it as InvalidArgument instead.
  const std::uint32_t huge = 1u << 31;
  std::vector<std::uint8_t> payload(16, 0);  // zero deadline_us @8
  std::memcpy(payload.data(), &huge, 4);      // num_steps
  std::memcpy(payload.data() + 4, &huge, 4);  // elems_per_step
  EXPECT_THROW(decode_request(42, payload), InvalidArgument);

  // A trailing byte count that is not a multiple of sizeof(float) can
  // never agree with any (num_steps, elems_per_step): also rejected.
  payload.push_back(0);
  EXPECT_THROW(decode_request(42, payload), InvalidArgument);
}

TEST(ServeProtocol, RequestRoundTripAndTruncationChecks) {
  InferRequest r;
  r.request_id = 42;
  r.num_steps = 3;
  r.elems_per_step = 4;
  Rng rng(7);
  for (int i = 0; i < 12; ++i)
    r.data.push_back(static_cast<float>(rng.normal()));
  const std::vector<std::uint8_t> payload =
      payload_of(infer_request_frame(r));
  const InferRequest back = decode_request(r.request_id, payload);
  EXPECT_EQ(back.request_id, 42u);
  EXPECT_EQ(back.num_steps, 3u);
  EXPECT_EQ(back.elems_per_step, 4u);
  ASSERT_EQ(back.data.size(), r.data.size());
  EXPECT_EQ(std::memcmp(back.data.data(), r.data.data(),
                        r.data.size() * sizeof(float)),
            0);

  // Truncated payload and inconsistent dims both throw.
  std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 4);
  EXPECT_THROW(decode_request(42, cut), InvalidArgument);
  EXPECT_THROW(decode_request(42, std::vector<std::uint8_t>{1, 2, 3}),
               InvalidArgument);
}

TEST(ServeProtocol, ResponseAndErrorRoundTrip) {
  InferResponse r;
  r.request_id = 9;
  r.out_features = 3;
  r.batch = 5;
  r.queue_ns = 1234;
  r.assemble_ns = 777;
  r.infer_ns = 987654321;
  r.spike_counts = {1.0f, 0.0f, 2.5f};
  const InferResponse back =
      decode_response(9, payload_of(infer_response_frame(r)));
  EXPECT_EQ(back.batch, 5u);
  EXPECT_EQ(back.queue_ns, 1234u);
  EXPECT_EQ(back.assemble_ns, 777u);
  EXPECT_EQ(back.infer_ns, 987654321u);
  ASSERT_EQ(back.spike_counts.size(), 3u);
  EXPECT_EQ(std::memcmp(back.spike_counts.data(), r.spike_counts.data(),
                        3 * sizeof(float)),
            0);

  ErrorResponse e;
  e.request_id = 9;
  e.code = ErrorCode::kOverloaded;
  e.message = "queue at max depth";
  const ErrorResponse eback = decode_error(9, payload_of(error_frame(e)));
  EXPECT_EQ(eback.code, ErrorCode::kOverloaded);
  EXPECT_EQ(eback.message, "queue at max depth");
  EXPECT_STREQ(error_code_name(ErrorCode::kShuttingDown), "shutting-down");
}

TEST(ServeProtocol, StatPayloadRoundTrip) {
  const std::string json = "{\"served\":3,\"qps\":12.5}";
  EXPECT_EQ(decode_stat(payload_of(stat_response_frame(1, json))), json);
  EXPECT_TRUE(decode_stat(payload_of(stat_response_frame(1, ""))).empty());
}

TEST(ServeProtocol, RequestDeadlineRoundTrip) {
  InferRequest r;
  r.request_id = 13;
  r.num_steps = 2;
  r.elems_per_step = 3;
  r.deadline_us = 123456;
  r.data = {1, 0, 1, 0, 1, 0};
  const std::vector<std::uint8_t> payload =
      payload_of(infer_request_frame(r));
  EXPECT_EQ(payload.size(), 16u + r.data.size() * sizeof(float));
  const InferRequest back = decode_request(13, payload);
  EXPECT_EQ(back.deadline_us, 123456u);
  EXPECT_EQ(back.num_steps, 2u);
  ASSERT_EQ(back.data.size(), r.data.size());
}

TEST(ServeProtocol, DeadlineAndInternalErrorCodesRoundTrip) {
  ErrorResponse e;
  e.request_id = 4;
  e.code = ErrorCode::kDeadlineExceeded;
  e.message = "late";
  EXPECT_EQ(decode_error(4, payload_of(error_frame(e))).code,
            ErrorCode::kDeadlineExceeded);
  e.code = ErrorCode::kInternalError;
  EXPECT_EQ(decode_error(4, payload_of(error_frame(e))).code,
            ErrorCode::kInternalError);
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternalError), "internal-error");
  // One past the last known code: rejected at decode.
  e.code = static_cast<ErrorCode>(6);
  EXPECT_THROW(decode_error(4, payload_of(error_frame(e))), InvalidArgument);
}

/// Little-endian wire bytes of one scalar, for spelling out expected frames.
template <typename T>
std::vector<std::uint8_t> le(T v) {
  std::vector<std::uint8_t> out(sizeof(T));
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    out[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return out;
}

std::vector<std::uint8_t> cat(
    std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// The 20 header bytes: magic "STSV", kind | 3 << 8, request id, length.
std::vector<std::uint8_t> v3_header(std::uint8_t kind, std::uint64_t id,
                                    std::uint32_t payload_bytes) {
  return cat({{0x56, 0x53, 0x54, 0x53, kind, 0x03, 0x00, 0x00}, le(id),
              le(payload_bytes)});
}

TEST(ServeProtocol, FramesMatchTheV3Layout) {
  const std::uint64_t id = 0x0102030405060708ULL;
  EXPECT_EQ(v3_header(1, id, 0),
            (std::vector<std::uint8_t>{0x56, 0x53, 0x54, 0x53, 0x01, 0x03,
                                       0x00, 0x00, 0x08, 0x07, 0x06, 0x05,
                                       0x04, 0x03, 0x02, 0x01, 0x00, 0x00,
                                       0x00, 0x00}));

  InferRequest req;
  req.request_id = id;
  req.num_steps = 2;
  req.elems_per_step = 1;
  req.deadline_us = 99;
  req.data = {1.0f, 0.5f};
  // num_steps @0, elems_per_step @4, deadline_us @8, floats @16.
  const auto req_body = cat({le(2u), le(1u), le(std::uint64_t{99}),
                             le(1.0f), le(0.5f)});
  EXPECT_EQ(infer_request_frame(req), cat({v3_header(1, id, 24), req_body}));

  InferResponse resp;
  resp.request_id = id;
  resp.out_features = 2;
  resp.batch = 3;
  resp.queue_ns = 10;
  resp.assemble_ns = 11;
  resp.infer_ns = 12;
  resp.spike_counts = {4.0f, 0.0f};
  // out_features @0, batch @4, queue_ns @8, assemble_ns @16, infer_ns @24,
  // counts @32.
  EXPECT_EQ(infer_response_frame(resp),
            cat({v3_header(2, id, 40), le(2u), le(3u), le(std::uint64_t{10}),
                 le(std::uint64_t{11}), le(std::uint64_t{12}), le(4.0f),
                 le(0.0f)}));

  // code @0, message length @4, message @8.
  EXPECT_EQ(error_frame({id, ErrorCode::kOverloaded, "busy"}),
            cat({v3_header(3, id, 12), le(1u), le(4u), {'b', 'u', 's', 'y'}}));

  EXPECT_EQ(stat_request_frame(id), v3_header(4, id, 0));
  EXPECT_EQ(stat_response_frame(id, "{}"),
            cat({v3_header(5, id, 2), {'{', '}'}}));

  // Stream control (open, its echo ack, and close): stream_id @0.
  const StreamControl ctl{id, 0x42};
  EXPECT_EQ(stream_open_frame(ctl),
            cat({v3_header(6, id, 8), le(std::uint64_t{0x42})}));
  EXPECT_EQ(stream_close_frame(ctl),
            cat({v3_header(8, id, 8), le(std::uint64_t{0x42})}));

  // Step: stream_id @0, then the infer-request body @8.
  EXPECT_EQ(stream_step_frame({0x42, req}),
            cat({v3_header(7, id, 32), le(std::uint64_t{0x42}), req_body}));

  // Close reply: stream_id @0, steps_done @8, count @16, totals @20.
  StreamCloseReply reply;
  reply.request_id = id;
  reply.stream_id = 0x42;
  reply.steps_done = 9;
  reply.cumulative_counts = {2.0f};
  EXPECT_EQ(stream_close_reply_frame(reply),
            cat({v3_header(8, id, 24), le(std::uint64_t{0x42}),
                 le(std::uint64_t{9}), le(1u), le(2.0f)}));

  // Every frame decodes back to its own header.
  const FrameHeader h = decode_header(infer_request_frame(req).data());
  EXPECT_EQ(h.kind, FrameKind::kInferRequest);
  EXPECT_EQ(h.request_id, id);
  EXPECT_EQ(h.payload_bytes, 24u);
}

// --- batcher ----------------------------------------------------------------

PendingRequest pending(std::uint32_t num_steps, std::uint64_t id = 0,
                       std::uint64_t deadline_ns = 0) {
  PendingRequest p;
  p.request.request_id = id;
  p.request.num_steps = num_steps;
  p.deadline_ns = deadline_ns;
  return p;
}

/// Dequeue for tests of the deadline-free batching rules: nothing queued
/// carries a deadline, so the expired out-parameter must stay empty.
std::vector<PendingRequest> take_batch(Batcher& b) {
  std::vector<PendingRequest> expired;
  std::vector<PendingRequest> batch = b.next_batch(expired);
  EXPECT_TRUE(expired.empty());
  return batch;
}

TEST(ServeBatcher, AdmissionControlBoundsQueueDepth) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 2});
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kAdmitted);
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kAdmitted);
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kQueueFull);
  EXPECT_EQ(b.depth(), 2u);
}

TEST(ServeBatcher, DrainRejectsSubmitsAndReleasesWorkers) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 8});
  b.drain();
  EXPECT_TRUE(b.draining());
  EXPECT_EQ(b.submit(pending(4)), AdmitResult::kDraining);
  // Draining + empty queue: next_batch returns empty instead of blocking.
  EXPECT_TRUE(take_batch(b).empty());
}

TEST(ServeBatcher, DrainServesQueuedWorkBeforeReleasing) {
  Batcher b({.max_batch = 2, .batch_timeout_us = 0, .max_queue_depth = 8});
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 2)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 3)), AdmitResult::kAdmitted);
  b.drain();
  EXPECT_EQ(take_batch(b).size(), 2u);  // admitted work still comes out
  EXPECT_EQ(take_batch(b).size(), 1u);
  EXPECT_TRUE(take_batch(b).empty());  // then the drain signal
}

TEST(ServeBatcher, CoalescesSameWindowLengthOnly) {
  // Queue: T=4, T=4, T=2, T=4.  The first batch takes the three T=4
  // requests (in arrival order); T=2 stays queued and forms the next batch.
  Batcher b({.max_batch = 8, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 2)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(2, 3)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 4)), AdmitResult::kAdmitted);

  const auto first = take_batch(b);
  ASSERT_EQ(first.size(), 3u);
  for (const PendingRequest& p : first) EXPECT_EQ(p.request.num_steps, 4u);
  EXPECT_EQ(first[0].request.request_id, 1u);
  EXPECT_EQ(first[1].request.request_id, 2u);
  EXPECT_EQ(first[2].request.request_id, 4u);

  const auto second = take_batch(b);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].request.request_id, 3u);
  EXPECT_EQ(second[0].request.num_steps, 2u);
}

TEST(ServeBatcher, RespectsMaxBatch) {
  Batcher b({.max_batch = 2, .batch_timeout_us = 0, .max_queue_depth = 16});
  for (std::uint64_t i = 0; i < 5; ++i)
    ASSERT_EQ(b.submit(pending(4, i)), AdmitResult::kAdmitted);
  EXPECT_EQ(take_batch(b).size(), 2u);
  EXPECT_EQ(take_batch(b).size(), 2u);
  EXPECT_EQ(take_batch(b).size(), 1u);
  EXPECT_EQ(b.depth(), 0u);
}

TEST(ServeBatcher, LatencyBudgetPicksUpLateArrivals) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 200000,
             .max_queue_depth = 16});
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  std::thread late([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(b.submit(pending(4, 2)), AdmitResult::kAdmitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.drain();  // close the window so next_batch returns promptly
  });
  const auto batch = take_batch(b);
  late.join();
  ASSERT_EQ(batch.size(), 2u);  // the late arrival joined the open batch
  EXPECT_EQ(batch[1].request.request_id, 2u);
}

TEST(ServeBatcher, ShedsExpiredEntriesAtDequeue) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 16});
  const std::uint64_t now = obs::telemetry_now_ns();
  ASSERT_EQ(b.submit(pending(4, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 2, /*deadline_ns=*/now)),  // already expired
            AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(pending(4, 3, now + 60'000'000'000ull)),  // +60 s
            AdmitResult::kAdmitted);
  std::vector<PendingRequest> expired;
  const auto batch = b.next_batch(expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.request_id, 2u);
  ASSERT_EQ(batch.size(), 2u);  // the live requests still coalesce
  EXPECT_EQ(batch[0].request.request_id, 1u);
  EXPECT_EQ(batch[1].request.request_id, 3u);
  EXPECT_EQ(b.depth(), 0u);
}

TEST(ServeBatcher, ExpiredOnlyQueueReturnsPromptlyWithoutBlocking) {
  // Everything queued is stale: next_batch must hand the expired entries
  // back immediately (they still need kDeadlineExceeded answers) instead
  // of blocking for a live arrival that may never come.
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(pending(4, 1, obs::telemetry_now_ns())),
            AdmitResult::kAdmitted);
  std::vector<PendingRequest> expired;
  EXPECT_TRUE(b.next_batch(expired).empty());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.request_id, 1u);
}

TEST(ServeBatcher, DrainStillShedsExpiredBeforeReleasingWorkers) {
  Batcher b({.max_batch = 4, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(pending(4, 1, obs::telemetry_now_ns())),
            AdmitResult::kAdmitted);
  b.drain();
  // First pass: the expired entry comes out for shedding, not inference.
  std::vector<PendingRequest> expired;
  EXPECT_TRUE(b.next_batch(expired).empty());
  ASSERT_EQ(expired.size(), 1u);
  // Second pass: dry and draining — the worker-exit signal.
  expired.clear();
  EXPECT_TRUE(b.next_batch(expired).empty());
  EXPECT_TRUE(expired.empty());
}

// --- server integration -----------------------------------------------------

struct MlpServer {
  std::unique_ptr<snn::SpikingNetwork> net;
  Shape per_sample;
  infer::CompiledModel model;
  std::unique_ptr<Server> server;

  explicit MlpServer(ServerConfig cfg = {})
      : net(snn::make_snn_mlp({})),
        per_sample({snn::MlpConfig{}.in_features}),
        model(infer::CompiledModel::compile(*net, per_sample)) {
    cfg.port = 0;  // ephemeral
    server = std::make_unique<Server>(model, cfg);
    server->start();
  }
};

InferRequest random_request(std::uint64_t id, std::uint32_t num_steps,
                            std::int64_t elems, Rng& rng) {
  InferRequest r;
  r.request_id = id;
  r.num_steps = num_steps;
  r.elems_per_step = static_cast<std::uint32_t>(elems);
  r.data.resize(static_cast<std::size_t>(num_steps) *
                static_cast<std::size_t>(elems));
  for (float& v : r.data) v = rng.uniform() < 0.2 ? 1.0f : 0.0f;
  return r;
}

// Direct single-sample reference run for the parity checks.
std::vector<float> reference_counts(const infer::CompiledModel& model,
                                    const Shape& per_sample,
                                    const InferRequest& r) {
  infer::InferenceSession session(model, {.max_batch = 1});
  std::vector<std::int64_t> dims{1};
  for (std::int64_t d : per_sample.dims()) dims.push_back(d);
  const std::int64_t elems = per_sample.numel();
  std::vector<Tensor> window;
  for (std::uint32_t t = 0; t < r.num_steps; ++t) {
    Tensor x{Shape(dims)};
    std::memcpy(x.data(), r.data.data() + t * elems,
                static_cast<std::size_t>(elems) * sizeof(float));
    window.push_back(std::move(x));
  }
  const auto out = session.run(window);
  return {out.spike_counts.data(),
          out.spike_counts.data() + out.spike_counts.numel()};
}

TEST(ServeServer, SingleRequestMatchesDirectSessionBitwise) {
  MlpServer s;
  Rng rng(11);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), /*retry_ms=*/2000);
  const InferRequest req = random_request(7, 6, elems, rng);
  const TcpClient::Reply reply = client.roundtrip(req);
  ASSERT_TRUE(reply.ok) << reply.error.message;
  EXPECT_EQ(reply.response.request_id, 7u);
  EXPECT_GE(reply.response.batch, 1u);

  const std::vector<float> want = reference_counts(s.model, s.per_sample, req);
  ASSERT_EQ(reply.response.spike_counts.size(), want.size());
  EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)),
            0)
      << "served spike counts differ from a direct InferenceSession run";
}

TEST(ServeServer, ConcurrentClientsAllGetBitwiseParity) {
  MlpServer s({.num_workers = 2, .max_batch = 8, .batch_timeout_us = 1000});
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      TcpClient client("127.0.0.1", port, 2000);
      for (int i = 0; i < kPerThread; ++i) {
        const InferRequest req = random_request(
            static_cast<std::uint64_t>(c * 1000 + i), 4, elems, rng);
        const TcpClient::Reply reply = client.roundtrip(req);
        if (!reply.ok) {
          ++mismatches[static_cast<std::size_t>(c)];
          continue;
        }
        const std::vector<float> want =
            reference_counts(s.model, s.per_sample, req);
        if (std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)) != 0)
          ++mismatches[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kThreads; ++c)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0) << "client " << c;
  // A worker counts a response as served after writing it, so a client can
  // hold its last reply before the count moves; drain first.
  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.served, kThreads * kPerThread);
  EXPECT_EQ(stats.bad_requests, 0);
  EXPECT_GE(stats.max_batch_seen, 1);
}

TEST(ServeServer, RejectsMalformedRequests) {
  MlpServer s({.max_steps = 8});
  Rng rng(3);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);

  // Shape mismatch with the model input.
  InferRequest wrong_elems = random_request(1, 4, elems + 1, rng);
  TcpClient::Reply reply = client.roundtrip(wrong_elems);
  ASSERT_FALSE(reply.ok);
  ASSERT_FALSE(reply.disconnected);
  EXPECT_EQ(reply.error.code, ErrorCode::kBadRequest);

  // Window length above the configured cap.
  InferRequest too_long = random_request(2, 9, elems, rng);
  reply = client.roundtrip(too_long);
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, ErrorCode::kBadRequest);

  // The connection survives bad requests: a good one still round-trips.
  reply = client.roundtrip(random_request(3, 4, elems, rng));
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(s.server->stats().bad_requests, 2);
}

// Raw-socket helpers for sending hostile bytes TcpClient never would.
// `rcvbuf` (if nonzero) shrinks SO_RCVBUF before connecting, so a peer
// that never reads wedges the daemon's sends after a few KiB.
int connect_raw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0)
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void send_raw(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool recv_exact(int fd, std::uint8_t* p, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool recv_frame_raw(int fd, FrameHeader& header,
                    std::vector<std::uint8_t>& payload) {
  std::uint8_t raw[kHeaderBytes];
  if (!recv_exact(fd, raw, kHeaderBytes)) return false;
  header = decode_header(raw);
  payload.resize(header.payload_bytes);
  return payload.empty() || recv_exact(fd, payload.data(), payload.size());
}

TEST(ServeServer, HostileFramesNeverKillTheDaemon) {
  MlpServer s;
  const int port = s.server->port();

  // 1. Overflowing dims (num_steps = elems = 2^31 in a 16-byte payload):
  //    answered with bad-request; the connection stays usable.
  {
    const int fd = connect_raw(port);
    FrameHeader h;
    h.kind = FrameKind::kInferRequest;
    h.request_id = 77;
    h.payload_bytes = 16;
    std::uint8_t raw[kHeaderBytes];
    encode_header(h, raw);
    send_raw(fd, raw, kHeaderBytes);
    const std::uint32_t huge = 1u << 31;
    std::uint8_t body[16] = {};  // dims, then a zero deadline_us
    std::memcpy(body, &huge, 4);
    std::memcpy(body + 4, &huge, 4);
    send_raw(fd, body, 16);
    FrameHeader rh;
    std::vector<std::uint8_t> rp;
    ASSERT_TRUE(recv_frame_raw(fd, rh, rp));
    EXPECT_EQ(rh.kind, FrameKind::kError);
    EXPECT_EQ(decode_error(rh.request_id, rp).code, ErrorCode::kBadRequest);
    ::close(fd);
  }

  // 2. A header claiming a ~4 GiB payload: the daemon drops the connection
  //    (framing is unrecoverable) without allocating or aborting.
  {
    const int fd = connect_raw(port);
    FrameHeader h;
    h.kind = FrameKind::kInferRequest;
    h.request_id = 78;
    h.payload_bytes = 0xffffffffu;
    std::uint8_t raw[kHeaderBytes];
    encode_header(h, raw);
    send_raw(fd, raw, kHeaderBytes);
    std::uint8_t b;
    EXPECT_LE(::recv(fd, &b, 1, 0), 0);  // server closed, not crashed
    ::close(fd);
  }

  // 3. Any version byte but 3 — the zero byte of a pre-versioning peer, an
  //    older version, a newer one — is foreign framing: the daemon drops
  //    the connection and counts a bad request, like a bad magic.
  Rng rng(5);
  for (const std::uint8_t version : {0, 2, 4}) {
    const std::int64_t bad_before = s.server->stats().bad_requests;
    std::vector<std::uint8_t> frame = infer_request_frame(
        random_request(80 + version, 4, s.per_sample.numel(), rng));
    frame[5] = version;  // the kind word's second byte
    const int fd = connect_raw(port);
    send_raw(fd, frame.data(), frame.size());
    std::uint8_t b;
    EXPECT_LE(::recv(fd, &b, 1, 0), 0) << "version " << int{version};
    ::close(fd);
    // The reader counts the bad request before it aborts the connection,
    // so the EOF above already implies the increment.
    EXPECT_EQ(s.server->stats().bad_requests, bad_before + 1)
        << "version " << int{version};
  }

  // 4. The daemon survived all of it: a well-formed request still
  //    round-trips with bitwise parity.
  TcpClient client("127.0.0.1", port, 2000);
  const InferRequest req = random_request(9, 4, s.per_sample.numel(), rng);
  const TcpClient::Reply reply = client.roundtrip(req);
  ASSERT_TRUE(reply.ok) << reply.error.message;
  const std::vector<float> want = reference_counts(s.model, s.per_sample, req);
  EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_GE(s.server->stats().bad_requests, 5);
}

TEST(ServeServer, DrainAnswersInFlightRequestsAndStopsAdmissions) {
  MlpServer s({.num_workers = 2, .max_batch = 4, .batch_timeout_us = 500});
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();
  constexpr int kThreads = 4;
  std::atomic<int> connected{0};
  std::atomic<int> completed{0};
  std::atomic<int> shutdown_seen{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + static_cast<std::uint64_t>(c));
      TcpClient client("127.0.0.1", port, 2000);
      ++connected;
      for (int i = 0; i < 200; ++i) {
        const TcpClient::Reply reply = client.roundtrip(random_request(
            static_cast<std::uint64_t>(i), 4, elems, rng));
        if (reply.ok) {
          ++completed;
        } else if (reply.disconnected ||
                   reply.error.code == ErrorCode::kShuttingDown) {
          ++shutdown_seen;
          return;  // daemon drained away mid-burst: expected
        } else {
          ++unexpected;
          return;
        }
      }
    });
  }
  // Let every client connect (a late one would find the listener closed)
  // and some requests land, then drain while the clients keep pushing.
  while (connected.load() < kThreads || completed.load() < 8)
    std::this_thread::yield();
  s.server->drain_and_stop();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GE(completed.load(), 8);
  const Server::Stats stats = s.server->stats();
  // Every request the daemon admitted was answered: the clients' completed
  // tally equals the server's served counter (no response vanished).
  EXPECT_EQ(stats.served, completed.load());
  EXPECT_EQ(stats.dropped_responses, 0);
  EXPECT_FALSE(s.server->running());
  // Idempotent: a second drain is a no-op.
  s.server->drain_and_stop();
}

TEST(ServeServer, StatReportsConsistentWindowedBreakdown) {
  const std::string span_log = ::testing::TempDir() + "/serve_stat_spans.jsonl";
  std::remove(span_log.c_str());
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 500;
  cfg.span_sample_every = 1;  // record every request
  cfg.span_log = span_log;
  cfg.slo_target_ms = 10000.0;  // generous: every request should pass
  MlpServer s(cfg);
  Rng rng(21);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);

  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const TcpClient::Reply reply = client.roundtrip(
        random_request(static_cast<std::uint64_t>(i + 1), 4, elems, rng));
    ASSERT_TRUE(reply.ok) << reply.error.message;
    // The response metadata carries the per-request stage split.
    EXPECT_GT(reply.response.infer_ns, 0u);
  }
  // A worker counts a reply, fills the windows and records its span only
  // after the reply is on the wire, so the last reply can reach the client
  // before the daemon has counted it.  The span is recorded last: wait for
  // it, then every total below is final.
  const auto settle =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.server->spans().recorded() < kRequests &&
         std::chrono::steady_clock::now() < settle)
    std::this_thread::yield();

  // STAT on the same connection, interleaved with inference traffic.
  const TcpClient::StatReply stat = client.stat(777);
  ASSERT_TRUE(stat.ok);
  ASSERT_FALSE(stat.disconnected);
  const JsonValue root = JsonValue::parse(stat.json, "STAT reply");

  const JsonValue* totals = root.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->number_or("served", -1), kRequests);
  EXPECT_GT(root.number_or("qps", 0.0), 0.0);
  EXPECT_GT(root.number_or("uptime_s", 0.0), 0.0);

  // Every request landed inside the default 10 s window, and the five
  // stage histograms tile [recv, send]: their means sum to the end-to-end
  // mean (up to float noise from the ns -> us division).
  const JsonValue* req = root.find("request_us");
  const JsonValue* stages = root.find("stages");
  ASSERT_NE(req, nullptr);
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(req->number_or("count", -1), kRequests);
  double stage_mean_sum = 0.0;
  for (const char* key :
       {"decode_us", "queue_us", "assemble_us", "infer_us", "respond_us"}) {
    const JsonValue* stage = stages->find(key);
    ASSERT_NE(stage, nullptr) << key;
    EXPECT_EQ(stage->number_or("count", -1), kRequests) << key;
    stage_mean_sum += stage->number_or("mean", 0.0);
  }
  const double e2e_mean = req->number_or("mean", 0.0);
  EXPECT_GT(e2e_mean, 0.0);
  EXPECT_NEAR(stage_mean_sum, e2e_mean, 1e-6 * e2e_mean + 1e-3);
  EXPECT_GE(req->number_or("p99", 0.0), req->number_or("p50", 0.0));

  // SLO: a 10-second target means zero violations and zero burn.
  const JsonValue* slo = root.find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->number_or("violations", -1), 0);
  EXPECT_EQ(slo->number_or("ok", -1), kRequests);
  EXPECT_DOUBLE_EQ(slo->number_or("burn", -1), 0.0);

  // At 100% sampling every request left a span.
  const JsonValue* spans = root.find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->number_or("recorded", -1), kRequests);
  EXPECT_EQ(s.server->spans().recorded(), kRequests);
  EXPECT_EQ(s.server->stats().stat_requests, 1);

  // Drain writes the span log; it parses back with one line per request
  // and per-span stage tiling.
  s.server->drain_and_stop();
  const std::vector<obs::ParsedSpan> parsed = obs::parse_span_jsonl(span_log);
  ASSERT_EQ(parsed.size(), static_cast<std::size_t>(kRequests));
  for (const obs::ParsedSpan& p : parsed) {
    EXPECT_TRUE(p.ok);
    EXPECT_GE(p.batch, 1);
    EXPECT_NEAR(p.decode_us + p.queue_us + p.assemble_us + p.infer_us +
                    p.respond_us,
                p.e2e_us, 1e-6 * p.e2e_us + 1e-3);
  }
}

TEST(ServeServer, StatAnswersBeforeAnyInferenceTraffic) {
  // STAT bypasses the batcher entirely, so introspection works on an idle
  // daemon (and, by the same path, on an overloaded one): empty windows
  // report zero quantiles rather than erroring.
  MlpServer s({.num_workers = 1, .max_batch = 2, .batch_timeout_us = 100});
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  const TcpClient::StatReply stat = client.stat(1);
  ASSERT_TRUE(stat.ok);
  const JsonValue root = JsonValue::parse(stat.json, "STAT reply");
  EXPECT_EQ(root.find("totals")->number_or("served", -1), 0);
  EXPECT_DOUBLE_EQ(root.number_or("qps", -1), 0.0);
  const JsonValue* req = root.find("request_us");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->number_or("count", -1), 0);
  EXPECT_DOUBLE_EQ(req->number_or("p99", -1), 0.0);
}

// --- deadlines, poison isolation, connection hygiene ------------------------

TEST(ServeServer, ExpiredDeadlineIsShedNotServed) {
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  // Wedge the single worker inside the first request's inference so the
  // second request's budget deterministically expires in the queue.
  cfg.poison_hook = [](const InferRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  };
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  std::thread wedge([&] {
    Rng rng(41);
    TcpClient c("127.0.0.1", port, 2000);
    const TcpClient::Reply r = c.roundtrip(random_request(1, 4, elems, rng));
    EXPECT_TRUE(r.ok) << r.error.message;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  Rng rng(42);
  TcpClient client("127.0.0.1", port, 2000);
  InferRequest late = random_request(2, 4, elems, rng);
  late.deadline_us = 5000;  // 5 ms << the ~170 ms of wedge left
  const TcpClient::Reply reply = client.roundtrip(late);
  wedge.join();
  ASSERT_FALSE(reply.ok);
  ASSERT_FALSE(reply.disconnected);
  EXPECT_EQ(reply.error.code, ErrorCode::kDeadlineExceeded);

  // The shed shows up in live STAT introspection (both counters were
  // bumped before the error frame we already received was written).
  const TcpClient::StatReply stat = client.stat(99);
  ASSERT_TRUE(stat.ok);
  const JsonValue root = JsonValue::parse(stat.json, "STAT reply");
  const JsonValue* deadline = root.find("deadline");
  ASSERT_NE(deadline, nullptr);
  EXPECT_EQ(deadline->number_or("requests", -1), 1);
  EXPECT_EQ(deadline->number_or("shed", -1), 1);

  // Counters are only final once the workers are joined: `served` is
  // bumped after the response write, so a drain must separate the last
  // reply from the stats assertions.
  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.deadline_requests, 1);
  EXPECT_EQ(stats.deadline_shed, 1);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.admitted, stats.served + stats.dropped_responses +
                                stats.deadline_shed + stats.internal_errors);
}

TEST(ServeServer, PoisonRequestIsolatedWithoutKillingBatchmates) {
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 8;
  cfg.batch_timeout_us = 30000;  // 30 ms window: the three coalesce
  cfg.poison_hook = [](const InferRequest& r) {
    if (r.request_id == 666) throw Error("poison pill");
  };
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  constexpr std::uint64_t kIds[3] = {1, 666, 2};
  TcpClient::Reply replies[3];
  InferRequest requests[3];
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      Rng rng(300 + static_cast<std::uint64_t>(i));
      TcpClient c("127.0.0.1", port, 2000);
      requests[i] = random_request(kIds[i], 4, elems, rng);
      replies[i] = c.roundtrip(requests[i]);
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < 3; ++i) {
    if (kIds[i] == 666) {
      ASSERT_FALSE(replies[i].ok);
      ASSERT_FALSE(replies[i].disconnected);
      EXPECT_EQ(replies[i].error.code, ErrorCode::kInternalError);
      continue;
    }
    // Batchmates survive the poison AND keep bitwise parity: the isolation
    // re-run is the same kernel on the same window.
    ASSERT_TRUE(replies[i].ok) << replies[i].error.message;
    const std::vector<float> want =
        reference_counts(s.model, s.per_sample, requests[i]);
    EXPECT_EQ(std::memcmp(replies[i].response.spike_counts.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "batchmate " << kIds[i];
  }
  // The worker survived the poison: a fresh request still round-trips.
  Rng rng(310);
  TcpClient after("127.0.0.1", port, 2000);
  EXPECT_TRUE(after.roundtrip(random_request(7, 4, elems, rng)).ok);

  // Counters bump after the response write, so they are only final once
  // the workers are joined — drain before asserting them.
  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.internal_errors, 1);
  EXPECT_EQ(stats.served, 3);  // two surviving batchmates + the follow-up
  EXPECT_EQ(stats.admitted, stats.served + stats.dropped_responses +
                                stats.deadline_shed + stats.internal_errors);
}

TEST(ServeServer, SlowPeerIsCutBySendTimeoutNotServedForever) {
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 0;
  cfg.send_timeout_ms = 150;
  cfg.sndbuf_bytes = 4096;  // wedge after a few KiB, not megabytes
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  // A peer that floods requests and never reads a byte of its responses.
  const int fd = connect_raw(port, /*rcvbuf=*/4096);
  Rng rng(51);
  InferRequest req = random_request(1, 2, elems, rng);
  const std::vector<std::uint8_t> frame = infer_request_frame(req);
  bool full = false;
  for (int i = 0; i < 2000 && !full; ++i) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w = ::send(fd, frame.data() + off, frame.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w <= 0) {
        full = true;  // kernel buffers full (or the daemon already cut us)
        break;
      }
      off += static_cast<std::size_t>(w);
    }
  }

  // The bounded write path gives up on the wedged peer within the budget.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s.server->stats().send_timeouts < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(s.server->stats().send_timeouts, 1);
  ::close(fd);

  // Only that connection paid: a healthy client still gets parity service
  // (retrying through any overload backlog the flood left behind).
  Rng rng2(52);
  TcpClient healthy("127.0.0.1", port, 2000);
  const InferRequest good = random_request(9, 4, elems, rng2);
  TcpClient::Reply reply;
  for (int attempt = 0; attempt < 200; ++attempt) {
    reply = healthy.roundtrip(good);
    if (reply.ok || reply.error.code != ErrorCode::kOverloaded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(reply.ok) << reply.error.message;
  const std::vector<float> want =
      reference_counts(s.model, s.per_sample, good);
  EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
}

// --- v3 streaming integration -----------------------------------------------

// One request's spike window reshaped to the [1, ...] layout the streaming
// reference session expects.
std::vector<Tensor> request_window(const Shape& per_sample,
                                   const InferRequest& r) {
  std::vector<std::int64_t> dims{1};
  for (std::int64_t d : per_sample.dims()) dims.push_back(d);
  const std::int64_t elems = per_sample.numel();
  std::vector<Tensor> window;
  for (std::uint32_t t = 0; t < r.num_steps; ++t) {
    Tensor x{Shape(dims)};
    std::memcpy(x.data(), r.data.data() + t * elems,
                static_cast<std::size_t>(elems) * sizeof(float));
    window.push_back(std::move(x));
  }
  return window;
}

TEST(ServeStream, OpenStepCloseMatchesDirectStreamStateBitwise) {
  // The streaming parity contract end-to-end: every chunk's served counts
  // equal the same chunk fed to a local StreamState, and the close totals
  // equal its lifetime cumulative counts — the daemon's batching, queueing,
  // and state management must be invisible in the numbers.
  MlpServer s;
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  ASSERT_TRUE(client.stream_open(42, 1).ok);

  infer::InferenceSession ref(s.model, {.max_batch = 1});
  infer::StreamState state = ref.make_stream();
  infer::StreamState* ptr = &state;
  Rng rng(0x5eed);
  for (std::uint32_t chunk = 0; chunk < 3; ++chunk) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const InferRequest req =
        random_request(100 + chunk, 2 + chunk, elems, rng);
    const TcpClient::Reply reply = client.stream_step(42, req);
    ASSERT_TRUE(reply.ok) << reply.error.message;
    const auto want = ref.run(&ptr, 1, request_window(s.per_sample, req));
    ASSERT_EQ(reply.response.spike_counts.size(),
              static_cast<std::size_t>(want.spike_counts.numel()));
    EXPECT_EQ(std::memcmp(reply.response.spike_counts.data(),
                          want.spike_counts.data(),
                          reply.response.spike_counts.size() * sizeof(float)),
              0)
        << "served chunk counts differ from a direct StreamState step";
  }

  const TcpClient::StreamCloseResult closed = client.stream_close(42, 9);
  ASSERT_TRUE(closed.ok) << closed.error.message;
  EXPECT_EQ(closed.totals.stream_id, 42u);
  EXPECT_EQ(closed.totals.steps_done,
            static_cast<std::uint64_t>(state.steps_done()));
  ASSERT_EQ(closed.totals.cumulative_counts.size(),
            state.cumulative_counts().size());
  EXPECT_EQ(std::memcmp(closed.totals.cumulative_counts.data(),
                        state.cumulative_counts().data(),
                        state.cumulative_counts().size() * sizeof(float)),
            0)
      << "close totals differ from the local stream's lifetime counts";
}

TEST(ServeStream, LifecycleErrorsAreBadRequests) {
  MlpServer s;
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  Rng rng(77);
  const InferRequest req = random_request(1, 2, elems, rng);

  // Stepping a stream that was never opened is a bad request, not a crash
  // and not a silent fresh stream.
  TcpClient::Reply r = client.stream_step(7, req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kBadRequest);

  // Stream id 0 is the plain-request sentinel: the client refuses to even
  // encode it...
  EXPECT_THROW(client.stream_open(0), InvalidArgument);
  // ...and a peer that hand-crafts the frame anyway gets a bad-request.
  {
    const int fd = connect_raw(s.server->port());
    std::vector<std::uint8_t> zero_id(kHeaderBytes + 8, 0);
    FrameHeader h;
    h.kind = FrameKind::kStreamOpen;
    h.request_id = 3;
    h.payload_bytes = 8;
    encode_header(h, zero_id.data());
    send_raw(fd, zero_id.data(), zero_id.size());
    FrameHeader back;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(recv_frame_raw(fd, back, payload));
    EXPECT_EQ(back.kind, FrameKind::kError);
    EXPECT_EQ(decode_error(3, payload).code, ErrorCode::kBadRequest);
    ::close(fd);
  }

  ASSERT_TRUE(client.stream_open(7).ok);
  TcpClient::StreamAck ack = client.stream_open(7);  // double open
  ASSERT_FALSE(ack.ok);
  EXPECT_EQ(ack.error.code, ErrorCode::kBadRequest);

  ASSERT_TRUE(client.stream_step(7, req).ok);
  ASSERT_TRUE(client.stream_close(7).ok);

  // Step-after-close: the id is gone, so the step bounces as bad-request.
  r = client.stream_step(7, req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kBadRequest);
  const TcpClient::StreamCloseResult closed = client.stream_close(7);
  ASSERT_FALSE(closed.ok);
  EXPECT_EQ(closed.error.code, ErrorCode::kBadRequest);

  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.streams_opened, 1);
  EXPECT_EQ(stats.streams_closed, 1);
  EXPECT_EQ(stats.stream_steps, 1);
  EXPECT_EQ(stats.admitted, stats.served + stats.dropped_responses +
                                stats.deadline_shed + stats.internal_errors +
                                stats.stream_orphan_steps);
}

TEST(ServeStream, OpenPastBoundWithoutSpillDirIsOverloaded) {
  ServerConfig cfg;
  cfg.max_live_streams = 2;  // no stream_checkpoint_dir: a hard bound
  MlpServer s(cfg);
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  ASSERT_TRUE(client.stream_open(1).ok);
  ASSERT_TRUE(client.stream_open(2).ok);
  const TcpClient::StreamAck ack = client.stream_open(3);
  ASSERT_FALSE(ack.ok);
  EXPECT_EQ(ack.error.code, ErrorCode::kOverloaded);
  // Closing one frees the slot.
  ASSERT_TRUE(client.stream_close(2).ok);
  EXPECT_TRUE(client.stream_open(3).ok);
}

TEST(ServeStream, DrainWithOpenStreamsCheckpointsEachExactlyOnce) {
  const std::string dir = ::testing::TempDir() + "/serve_stream_drain";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerConfig cfg;
  cfg.max_live_streams = 64;
  cfg.stream_checkpoint_dir = dir;
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  TcpClient client("127.0.0.1", s.server->port(), 2000);
  Rng rng(91);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(client.stream_open(id).ok);
    ASSERT_TRUE(client.stream_step(id, random_request(id, 3, elems, rng)).ok);
  }
  // Stream 5 closes cleanly before the drain; 1-4 are still open.
  ASSERT_TRUE(client.stream_close(5).ok);

  s.server->drain_and_stop();

  // Each still-open stream's state lands in exactly one STK2 spill file;
  // the closed stream leaves nothing behind.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(e.path().filename().string().rfind("stream-", 0) == 0)
        << e.path();
    ++files;
  }
  EXPECT_EQ(files, 4u);
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.streams_opened, 5);
  EXPECT_EQ(stats.streams_closed, 1);
  EXPECT_EQ(stats.streams_checkpointed, 4);
  EXPECT_EQ(stats.streams_evicted, 0);
  EXPECT_EQ(stats.stream_steps, 5);
  // Drain is NOT a disconnect: the still-connected client's streams were
  // checkpointed for resumption, never reaped as orphans.
  EXPECT_EQ(stats.stream_auto_closed, 0);
}

TEST(ServeStream, DisconnectWithoutCloseReapsOrphanedStreams) {
  // A client that vanishes without STREAM_CLOSE must not leak its streams:
  // with no checkpoint dir they would pin max_live capacity forever, and
  // eventually every open on the daemon gets kOverloaded.  The reader
  // closes its connection's streams on the way out.
  ServerConfig cfg;
  cfg.max_live_streams = 2;  // hard bound: a leak is immediately visible
  MlpServer s(cfg);
  {
    TcpClient client("127.0.0.1", s.server->port(), 2000);
    ASSERT_TRUE(client.stream_open(1).ok);
    ASSERT_TRUE(client.stream_open(2).ok);
  }  // destructor drops the connection with both streams open

  // The reader reaps asynchronously after it sees EOF; poll briefly.
  Server::Stats stats;
  for (int i = 0; i < 500; ++i) {
    stats = s.server->stats();
    if (stats.stream_auto_closed >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stats.streams_opened, 2);
  EXPECT_EQ(stats.streams_closed, 2);
  EXPECT_EQ(stats.stream_auto_closed, 2);

  // The capacity the orphans pinned is usable again.
  TcpClient again("127.0.0.1", s.server->port(), 2000);
  EXPECT_TRUE(again.stream_open(1).ok);
  EXPECT_TRUE(again.stream_open(2).ok);
}

// --- fault injection --------------------------------------------------------

TEST(ServeFault, SpecParsesValidatesAndRoundTrips) {
  const FaultSpec spec =
      FaultSpec::parse("seed=42,p_partial=0.3,p_disconnect=0.01,delay_ms=7");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.p_partial, 0.3);
  EXPECT_DOUBLE_EQ(spec.p_disconnect, 0.01);
  EXPECT_EQ(spec.delay_ms, 7);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(FaultSpec{}.enabled());
  EXPECT_FALSE(FaultSpec::parse("").enabled());

  // describe() is canonical and round-trippable.
  const FaultSpec back = FaultSpec::parse(spec.describe());
  EXPECT_EQ(back.describe(), spec.describe());

  EXPECT_THROW(FaultSpec::parse("p_bogus=0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("p_partial=1.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("p_partial=-0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("seed=banana"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("p_partial"), InvalidArgument);
}

/// Replays a fixed frame script straight through FaultInjectingConnections
/// over socketpairs — single-threaded, with every inbound frame fully
/// buffered before the injector reads it — and returns the fired-fault
/// schedule.  Scripting matters: over real TCP the kernel's own short
/// writes change how many transport_send calls (and thus RNG draws) a
/// frame costs, so the schedule would not replay byte-for-byte.
std::string scripted_fault_schedule(const std::string& spec_text) {
  const FaultSpec spec = FaultSpec::parse(spec_text);
  FaultLog log;
  for (std::uint64_t conn = 0; conn < 3; ++conn) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      ADD_FAILURE() << "socketpair: " << std::strerror(errno);
      return "";
    }
    FaultInjectingConnection c(sv[0], "scripted", spec, conn, &log);
    for (int i = 0; i < 12; ++i) {
      Rng rng(1000 * (conn + 1) + static_cast<std::uint64_t>(i));
      const InferRequest req =
          random_request(static_cast<std::uint64_t>(i + 1), 2, 16, rng);
      const std::vector<std::uint8_t> frame =
          infer_request_frame(req);
      std::size_t off = 0;
      while (off < frame.size()) {
        const ssize_t w = ::send(sv[1], frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (w <= 0) break;
        off += static_cast<std::size_t>(w);
      }
      FrameHeader h;
      std::vector<std::uint8_t> payload;
      bool alive = false;
      try {
        alive = c.read_frame(h, payload, /*wake_fd=*/-1);
      } catch (const Error&) {
        // Corrupted header: the daemon would drop the connection.
      }
      if (alive) {
        // Echo the payload back under an infer-response header.
        FrameHeader rh;
        rh.kind = FrameKind::kInferResponse;
        rh.request_id = req.request_id;
        rh.payload_bytes = static_cast<std::uint32_t>(payload.size());
        std::vector<std::uint8_t> reply(kHeaderBytes);
        encode_header(rh, reply.data());
        reply.insert(reply.end(), payload.begin(), payload.end());
        alive = c.write_frame(reply);
      }
      // Drain whatever reached the peer so later writes never block.
      std::uint8_t sink[4096];
      while (::recv(sv[1], sink, sizeof sink, MSG_DONTWAIT) > 0) {
      }
      if (!alive) break;  // disconnect or corruption killed this connection
    }
    ::close(sv[1]);
  }
  return log.dump();
}

TEST(ServeFault, SameSeedReproducesTheSameSchedule) {
  const std::string spec =
      "seed=11,p_delay=0.25,delay_ms=1,p_read_stall=0.2,p_write_stall=0.2,"
      "stall_ms=1,p_partial=0.5,p_corrupt=0.1,p_disconnect=0.1";
  const std::string a = scripted_fault_schedule(spec);
  const std::string b = scripted_fault_schedule(spec);
  EXPECT_FALSE(a.empty()) << "no faults fired: the schedule test is vacuous";
  EXPECT_EQ(a, b) << "same seed, same traffic, different fault schedule";
  // A different seed produces a different schedule (overwhelmingly).
  const std::string c = scripted_fault_schedule(
      "seed=12,p_delay=0.25,delay_ms=1,p_read_stall=0.2,p_write_stall=0.2,"
      "stall_ms=1,p_partial=0.5,p_corrupt=0.1,p_disconnect=0.1");
  EXPECT_NE(a, c);
}

TEST(ServeFault, ChaosNeverBreaksParityGivenRetries) {
  ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 500;
  cfg.fault_spec =
      "seed=3,p_delay=0.1,delay_ms=1,p_partial=0.4,p_corrupt=0.05,"
      "p_disconnect=0.05";
  MlpServer s(cfg);
  const std::int64_t elems = s.per_sample.numel();
  const int port = s.server->port();

  Rng rng(61);
  std::unique_ptr<TcpClient> client;
  int completed = 0;
  for (int i = 0; i < 25; ++i) {
    const InferRequest req =
        random_request(static_cast<std::uint64_t>(i + 1), 4, elems, rng);
    for (int attempt = 0; attempt < 12; ++attempt) {
      if (client == nullptr || !client->connected())
        client = std::make_unique<TcpClient>("127.0.0.1", port, 2000);
      const TcpClient::Reply reply = client->roundtrip(req);
      if (reply.disconnected) {
        client.reset();  // mid-frame fault: reconnect and retry
        continue;
      }
      if (!reply.ok) continue;
      // THE chaos invariant: a response that arrives is bitwise correct,
      // whatever partial writes and delays it survived.
      const std::vector<float> want =
          reference_counts(s.model, s.per_sample, req);
      ASSERT_EQ(reply.response.spike_counts.size(), want.size());
      ASSERT_EQ(std::memcmp(reply.response.spike_counts.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "request " << i << " lost parity under faults";
      ++completed;
      break;
    }
  }
  EXPECT_EQ(completed, 25);
  EXPECT_GT(s.server->fault_log().size(), 0u);

  s.server->drain_and_stop();
  const Server::Stats stats = s.server->stats();
  EXPECT_EQ(stats.admitted, stats.served + stats.dropped_responses +
                                stats.deadline_shed + stats.internal_errors);
}

// --- drain x deadlines (forked: the SIGTERM path end to end) ----------------

TEST(ServeServer, SigtermDrainShedsExpiredAndExitsZero) {
  // install_shutdown_request() arms process-global state, so the daemon
  // side runs in a fork (same pattern as the cooperative-shutdown tests in
  // test_signal_flush.cpp); the gtest parent plays the clients.
  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(ready[0]);
    obs::install_shutdown_request();
    const auto net = snn::make_snn_mlp({});
    const Shape per_sample{snn::MlpConfig{}.in_features};
    const auto model = infer::CompiledModel::compile(*net, per_sample);
    ServerConfig cfg;
    cfg.port = 0;
    cfg.num_workers = 1;
    cfg.max_batch = 1;
    cfg.batch_timeout_us = 0;
    // Wedge the worker so tight-deadline requests are still queued (and
    // expired) when SIGTERM lands.
    cfg.poison_hook = [](const InferRequest&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    };
    Server server(model, cfg);
    server.start();
    const std::uint32_t port = static_cast<std::uint32_t>(server.port());
    if (write(ready[1], &port, sizeof port) != sizeof port) _exit(90);
    while (!obs::shutdown_requested()) {
      struct pollfd pfd = {obs::shutdown_fd(), POLLIN, 0};
      poll(&pfd, 1, 1000);
    }
    server.drain_and_stop();
    const Server::Stats st = server.stats();
    if (server.running()) _exit(91);
    if (st.admitted < 5) _exit(92);
    if (st.deadline_shed < 4) _exit(93);
    // Exactly-once accounting: every admitted request left through served,
    // dropped, shed, or internal-error — nothing vanished, nothing doubled.
    if (st.admitted != st.served + st.dropped_responses + st.deadline_shed +
                           st.internal_errors)
      _exit(94);
    _exit(0);
  }
  close(ready[1]);
  std::uint32_t port = 0;
  ASSERT_EQ(read(ready[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));
  close(ready[0]);
  const std::int64_t elems = Shape{snn::MlpConfig{}.in_features}.numel();

  // One no-deadline request wedges the single worker for ~400 ms...
  std::thread wedge([&] {
    Rng rng(71);
    TcpClient c("127.0.0.1", static_cast<int>(port), 2000);
    const TcpClient::Reply r = c.roundtrip(random_request(1, 4, elems, rng));
    EXPECT_TRUE(r.ok || r.disconnected);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...while four 1 ms-deadline requests pile up behind it and expire.
  Rng rng(72);
  const int fd = connect_raw(static_cast<int>(port));
  for (std::uint64_t id = 2; id <= 5; ++id) {
    InferRequest req = random_request(id, 4, elems, rng);
    req.deadline_us = 1000;
    const std::vector<std::uint8_t> frame = infer_request_frame(req);
    send_raw(fd, frame.data(), frame.size());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(kill(pid, SIGTERM), 0);

  // The drain answers every queued request: four deadline-exceeded sheds
  // arrive before the daemon closes the connection.
  int sheds = 0;
  FrameHeader rh;
  std::vector<std::uint8_t> rp;
  while (recv_frame_raw(fd, rh, rp)) {
    if (rh.kind == FrameKind::kError &&
        decode_error(rh.request_id, rp).code == ErrorCode::kDeadlineExceeded)
      ++sheds;
  }
  EXPECT_EQ(sheds, 4);
  ::close(fd);
  wedge.join();

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "daemon child failed invariant check " << WEXITSTATUS(status);
}

}  // namespace
}  // namespace spiketune::serve
