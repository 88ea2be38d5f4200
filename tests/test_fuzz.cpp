// Seeded mutation fuzzing of every decoder that reads untrusted bytes: the
// STSV frame header and payload decoders (serve/protocol.h) and the STK2
// checkpoint loader behind stream spill restore (core/serialize.h).
//
// The contract under test: every input either decodes or throws
// InvalidArgument — no other exception, no crash, no unbounded allocation.
// Inputs start from valid frames of every kind and a real spill file, then
// go through truncation at every length, bit flips, and hostile values
// (0, 1, 2^31, 2^32 - 1) in every length or count field.  The seed is
// fixed and printed with any failure.  Named cases below are inputs that
// once broke a decoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/serialize.h"
#include "infer/compiled_model.h"
#include "infer/stream.h"
#include "serve/protocol.h"
#include "snn/model_zoo.h"
#include "stk2_mutation.h"

namespace spiketune {
namespace {

constexpr std::uint64_t kSeed = 0xf022'5eedULL;

/// Tallies outcomes; anything but success or InvalidArgument is a failure.
struct Outcomes {
  int decoded = 0;
  int rejected = 0;

  void run(const std::string& what, const std::function<void()>& decode) {
    try {
      decode();
      ++decoded;
    } catch (const InvalidArgument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": threw a non-InvalidArgument exception: "
                    << e.what();
    } catch (...) {
      ADD_FAILURE() << what << ": threw a non-std exception";
    }
  }
};

// --- wire frames ------------------------------------------------------------

namespace wire {

using namespace spiketune::serve;
using Bytes = std::vector<std::uint8_t>;

/// A valid frame plus the payload offsets of its u32 length/count fields.
struct Seed {
  std::string name;
  Bytes frame;
  std::vector<std::size_t> length_fields;
};

std::vector<Seed> seed_frames() {
  InferRequest req;
  req.request_id = 11;
  req.num_steps = 3;
  req.elems_per_step = 2;
  req.deadline_us = 500;
  req.data = {1, 0, 0, 1, 1, 1};
  InferResponse resp;
  resp.request_id = 12;
  resp.out_features = 3;
  resp.batch = 2;
  resp.spike_counts = {1, 2, 3};
  StreamCloseReply reply;
  reply.request_id = 13;
  reply.stream_id = 9;
  reply.steps_done = 6;
  reply.cumulative_counts = {4, 5};
  return {
      {"infer_request", infer_request_frame(req), {0, 4}},
      {"infer_response", infer_response_frame(resp), {0}},
      {"error", error_frame({14, ErrorCode::kBadRequest, "nope"}), {4}},
      {"stat_request", stat_request_frame(15), {}},
      {"stat_response", stat_response_frame(16, "{\"qps\":1}"), {}},
      {"stream_open", stream_open_frame({17, 9}), {}},
      {"stream_step", stream_step_frame({9, req}), {8, 12}},
      {"stream_close", stream_close_frame({18, 9}), {}},
      {"stream_close_reply", stream_close_reply_frame(reply), {16}},
  };
}

/// Decodes a whole frame the way a peer would: the header, then the payload
/// with the decoder(s) for its kind.  Kind 8 travels both ways (close
/// request and close reply), so its payload goes through both decoders.
void decode_payload(Outcomes& out, const std::string& what, FrameKind kind,
                    const Bytes& payload) {
  switch (kind) {
    case FrameKind::kInferRequest:
      out.run(what, [&] {
        const InferRequest r = decode_request(1, payload);
        ASSERT_EQ(r.data.size(),
                  static_cast<std::size_t>(r.num_steps) * r.elems_per_step);
      });
      break;
    case FrameKind::kInferResponse:
      out.run(what, [&] {
        const InferResponse r = decode_response(1, payload);
        ASSERT_EQ(r.spike_counts.size(), r.out_features);
      });
      break;
    case FrameKind::kError:
      out.run(what, [&] { decode_error(1, payload); });
      break;
    case FrameKind::kStatRequest:
      break;  // no payload to decode
    case FrameKind::kStatResponse:
      out.run(what, [&] { decode_stat(payload); });
      break;
    case FrameKind::kStreamOpen:
      out.run(what, [&] { decode_stream_control(1, payload); });
      break;
    case FrameKind::kStreamStep:
      out.run(what, [&] {
        const StreamStepRequest r = decode_stream_step(1, payload);
        ASSERT_EQ(r.request.data.size(),
                  static_cast<std::size_t>(r.request.num_steps) *
                      r.request.elems_per_step);
      });
      break;
    case FrameKind::kStreamClose:
      out.run(what, [&] { decode_stream_control(1, payload); });
      out.run(what, [&] { decode_stream_close_reply(1, payload); });
      break;
  }
}

void decode_frame(Outcomes& out, const std::string& what, Bytes frame) {
  // A transport reads exactly kHeaderBytes before decoding; a short frame
  // is zero-padded to a full header here so it still reaches the decoder.
  if (frame.size() < kHeaderBytes) frame.resize(kHeaderBytes, 0);
  FrameHeader h;
  bool header_ok = false;
  out.run(what + " header", [&] {
    h = decode_header(frame.data());
    header_ok = true;
  });
  if (!header_ok) return;
  decode_payload(out, what, h.kind,
                 Bytes(frame.begin() + kHeaderBytes, frame.end()));
}

void put_u32(Bytes& b, std::size_t off, std::uint32_t v) {
  std::memcpy(b.data() + off, &v, 4);
}

}  // namespace wire

TEST(FuzzProtocol, ValidFramesOfEveryKindDecode) {
  Outcomes out;
  for (const wire::Seed& s : wire::seed_frames())
    wire::decode_frame(out, s.name, s.frame);
  // 9 headers and 8 payloads decode: stat_request has no payload decoder.
  // Kind 8 runs both directions' decoders, so the close request is
  // rejected as a close reply and the close reply as a close request.
  EXPECT_EQ(out.decoded, 9 + 8);
  EXPECT_EQ(out.rejected, 2);
}

TEST(FuzzProtocol, TruncationAtEveryLength) {
  Outcomes out;
  for (const wire::Seed& s : wire::seed_frames()) {
    const std::size_t payload = s.frame.size() - serve::kHeaderBytes;
    for (std::size_t keep = 0; keep < s.frame.size(); ++keep) {
      const std::string what = s.name + " cut to " + std::to_string(keep);
      // The frame as a transport would see it if the peer stopped early.
      wire::decode_frame(
          out, what, wire::Bytes(s.frame.begin(), s.frame.begin() + keep));
      // The payload cut short under the intact header.
      if (keep < payload) {
        const auto h = serve::decode_header(s.frame.data());
        wire::decode_payload(
            out, what + " (payload)", h.kind,
            wire::Bytes(s.frame.begin() + serve::kHeaderBytes,
                        s.frame.begin() + serve::kHeaderBytes + keep));
      }
    }
  }
  EXPECT_GT(out.rejected, 0);
}

TEST(FuzzProtocol, EverySingleBitFlip) {
  Outcomes out;
  for (const wire::Seed& s : wire::seed_frames()) {
    for (std::size_t bit = 0; bit < s.frame.size() * 8; ++bit) {
      wire::Bytes bad = s.frame;
      bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      wire::decode_frame(out, s.name + " bit " + std::to_string(bit), bad);
    }
  }
  // Flips inside float data or ids decode; flips in magic, version, kind or
  // lengths reject.  Both must happen, or the harness tested nothing.
  EXPECT_GT(out.decoded, 0);
  EXPECT_GT(out.rejected, 0);
}

TEST(FuzzProtocol, HostileValuesInEveryLengthField) {
  Outcomes out;
  const std::uint32_t values[] = {0u, 1u, 1u << 31, 0xffffffffu};
  for (const wire::Seed& s : wire::seed_frames()) {
    for (const std::uint32_t v : values) {
      const std::string tag = s.name + " = " + std::to_string(v);
      // The header's payload_bytes (offset 16) must be capped, never
      // trusted to size a buffer.
      wire::Bytes bad = s.frame;
      wire::put_u32(bad, 16, v);
      wire::decode_frame(out, tag + " in payload_bytes", bad);
      for (const std::size_t off : s.length_fields) {
        bad = s.frame;
        wire::put_u32(bad, serve::kHeaderBytes + off, v);
        wire::decode_frame(out, tag + " at payload +" + std::to_string(off),
                           bad);
      }
    }
  }
  EXPECT_GT(out.rejected, 0);
}

TEST(FuzzProtocol, SeededRandomCorruption) {
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  Rng rng(kSeed);
  const std::vector<wire::Seed> seeds = wire::seed_frames();
  Outcomes out;
  for (int i = 0; i < 4000; ++i) {
    const wire::Seed& s = seeds[rng.uniform_int(seeds.size())];
    wire::Bytes bad = s.frame;
    // Overwrite 1-8 random bytes with random values, then sometimes cut or
    // extend the frame: covers multi-byte damage single flips cannot.
    const int hits = 1 + static_cast<int>(rng.uniform_int(8));
    for (int h = 0; h < hits; ++h)
      bad[rng.uniform_int(bad.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(256));
    switch (rng.uniform_int(3)) {
      case 0:
        bad.resize(rng.uniform_int(bad.size() + 1));
        break;
      case 1:
        bad.resize(bad.size() + rng.uniform_int(16),
                   static_cast<std::uint8_t>(rng.uniform_int(256)));
        break;
      default:
        break;
    }
    wire::decode_frame(out, s.name + " case " + std::to_string(i), bad);
  }
  EXPECT_GT(out.decoded, 0);
  EXPECT_GT(out.rejected, 0);
}

// --- STK2 spill files -------------------------------------------------------

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A real stream spill file: the STK2 container StreamManager writes when
/// it evicts a stream (membrane and counts records, stream metadata).
std::string spill_file_bytes() {
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = infer::CompiledModel::compile(*net, Shape{16});
  const std::string dir = fresh_dir("fuzz_spill_source");
  infer::StreamManager manager(model, /*max_live=*/1, dir);
  EXPECT_EQ(manager.open(1), infer::StreamManager::OpenResult::kOk);
  EXPECT_EQ(manager.open(2), infer::StreamManager::OpenResult::kOk);
  std::string bytes;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    bytes = read_bytes(e.path().string());
  return bytes;
}

/// Loads `bytes` as a checkpoint file.
void load_bytes(Outcomes& out, const std::string& what,
                const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/fuzz_input.stk";
  write_bytes(path, bytes);
  out.run(what, [&] { load_checkpoint_full(path); });
}

TEST(FuzzCheckpoint, HostileValuesInEverySpillLengthField) {
  const std::string valid = spill_file_bytes();
  ASSERT_FALSE(valid.empty());
  Outcomes out;
  load_bytes(out, "unmutated spill", valid);
  ASSERT_EQ(out.decoded, 1);

  const auto fields = testing_stk2::length_fields(valid);
  ASSERT_GE(fields.size(), 8u);  // meta count + 4 strings, count, 2 records
  for (const auto& field : fields) {
    for (const std::uint64_t v : testing_stk2::hostile_values()) {
      const std::string bad = testing_stk2::with_field(valid, field, v);
      if (bad == valid) continue;
      load_bytes(out,
                 field.what + " @" + std::to_string(field.offset) + " = " +
                     std::to_string(v),
                 bad);
    }
  }
  EXPECT_GT(out.rejected, 0);
}

TEST(FuzzCheckpoint, SpillTruncatedAtEveryLengthUnderAValidCrc) {
  // A truncated file with a freshly computed whole-file trailer passes the
  // CRC gate, so each cut point exercises the loader's bounds checks.
  const std::string valid = spill_file_bytes();
  Outcomes out;
  for (std::size_t keep = 0; keep + 4 < valid.size(); ++keep) {
    std::string bad = valid.substr(0, keep) + std::string(4, '\0');
    testing_stk2::put_crc(bad, 0, keep);
    load_bytes(out, "cut to " + std::to_string(keep), bad);
  }
  EXPECT_EQ(out.decoded, 0);
}

TEST(FuzzCheckpoint, SeededMultiFieldMutationsUnderValidCrcs) {
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  Rng rng(kSeed);
  const std::string valid = spill_file_bytes();
  const auto fields = testing_stk2::length_fields(valid);
  const auto& values = testing_stk2::hostile_values();
  Outcomes out;
  for (int i = 0; i < 200; ++i) {
    std::string bad = valid;
    const int hits = 2 + static_cast<int>(rng.uniform_int(3));
    for (int h = 0; h < hits; ++h) {
      const auto& field = fields[rng.uniform_int(fields.size())];
      // Half the time a hostile value, half a random one.
      const std::uint64_t v = rng.uniform_int(2) == 0
                                  ? values[rng.uniform_int(values.size())]
                                  : rng.next_u64();
      bad = testing_stk2::with_field(bad, field, v);
    }
    load_bytes(out, "case " + std::to_string(i), bad);
  }
  EXPECT_GT(out.rejected, 0);
}

// Named case: a dimension of 2^32 - 1 under valid CRCs once sized a 16 GiB
// zero-filled tensor before the loader checked that the bytes were there.
TEST(FuzzCheckpoint, NamedHugeDimensionIsRejectedBeforeAllocating) {
  const std::string valid = spill_file_bytes();
  for (const auto& field : testing_stk2::length_fields(valid)) {
    if (field.what != "dimension") continue;
    const std::string bad = testing_stk2::with_field(
        valid, field, (std::uint64_t{1} << 32) - 1);
    const std::string path = ::testing::TempDir() + "/fuzz_huge_dim.stk";
    write_bytes(path, bad);
    EXPECT_THROW(load_checkpoint_full(path), InvalidArgument);
  }
}

// Named case: extents [2^40, 2^40, 0] have 0 elements, but the running
// product Shape::numel forms overflows int64 on the way there.
TEST(FuzzCheckpoint, NamedOverflowingExtentsBeforeAZeroAreRejected) {
  const std::string path = ::testing::TempDir() + "/fuzz_extents.stk";
  save_checkpoint(path, {{"t", Tensor(Shape{2, 3, 0})}});
  std::string bytes = read_bytes(path);
  std::vector<testing_stk2::Field> dims;
  for (const auto& field : testing_stk2::length_fields(bytes))
    if (field.what == "dimension") dims.push_back(field);
  ASSERT_EQ(dims.size(), 3u);
  bytes = testing_stk2::with_field(bytes, dims[0], std::uint64_t{1} << 40);
  bytes = testing_stk2::with_field(bytes, dims[1], std::uint64_t{1} << 40);
  write_bytes(path, bytes);
  EXPECT_THROW(load_checkpoint_full(path), InvalidArgument);
}

// Named case: a CRC-valid spill whose steps_done is not a number once
// escaped restore as std::invalid_argument from std::stoll.
TEST(FuzzCheckpoint, NamedMalformedStepsDoneFailsTheRestoreCleanly) {
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = infer::CompiledModel::compile(*net, Shape{16});
  const std::string dir = fresh_dir("fuzz_steps_done");
  infer::StreamManager manager(model, /*max_live=*/1, dir);
  ASSERT_EQ(manager.open(1), infer::StreamManager::OpenResult::kOk);
  ASSERT_EQ(manager.open(2), infer::StreamManager::OpenResult::kOk);
  std::string spill;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    spill = e.path().string();
  ASSERT_FALSE(spill.empty());
  const Checkpoint cp = load_checkpoint_full(spill);
  for (const char* text : {"", "x", "12x", "-3", "99999999999999999999"}) {
    SCOPED_TRACE(std::string("steps_done = '") + text + "'");
    CheckpointMeta meta = cp.meta;
    meta.extra["steps_done"] = text;
    save_checkpoint(spill, cp.records, meta);
    try {
      manager.acquire(1);
      manager.release(1);  // unpin, or the next acquire would wait forever
      ADD_FAILURE() << "restore accepted a malformed steps_done";
    } catch (const InvalidArgument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "restore threw a non-InvalidArgument exception: "
                    << e.what();
    }
    EXPECT_TRUE(manager.contains(1));
  }
  infer::StreamState* ok = manager.acquire(2);
  ASSERT_NE(ok, nullptr);
  manager.release(2);
}

}  // namespace
}  // namespace spiketune
