// Streaming stateful inference tests: StreamState parity against the
// whole-window path, StreamManager lifecycle / LRU eviction / bit-exact
// restore, the streaming wire messages, and the batcher's same-stream
// exclusion rule.
//
// The central contract (DESIGN.md §15): feeding a window through step()
// one timestep at a time — in any chunking, through any batch of
// co-resident streams, before or after an eviction/restore round-trip —
// produces cumulative spike counts BITWISE identical to one
// InferenceSession::run (and so to SpikingNetwork::forward) on the same
// window, at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "infer/session.h"
#include "infer/stream.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "snn/model_zoo.h"
#include "stk2_mutation.h"

namespace spiketune::infer {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int threads) { set_num_threads(threads); }
  ~ThreadGuard() { set_num_threads(1); }
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A window of `steps` per-sample event tensors, each element nonzero with
// probability `density` — the per-stream analogue of test_infer's windows.
std::vector<Tensor> sample_window(std::int64_t steps, const Shape& per_sample,
                                  double density, Rng& rng) {
  std::vector<Tensor> window;
  window.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 0; t < steps; ++t) {
    Tensor x = Tensor::full(per_sample, 0.0f);
    float* p = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i)
      if (rng.uniform() < density) p[i] = 1.0f;
    window.push_back(std::move(x));
  }
  return window;
}

// The same window reshaped to the [1, ...] batch layout run() expects.
std::vector<Tensor> batched_view(const std::vector<Tensor>& window) {
  std::vector<Tensor> out;
  out.reserve(window.size());
  for (const Tensor& step : window) {
    std::vector<std::int64_t> dims{1};
    for (std::int64_t d : step.shape().dims()) dims.push_back(d);
    Tensor x{Shape(dims)};
    std::memcpy(x.data(), step.data(),
                static_cast<std::size_t>(step.numel()) * sizeof(float));
    out.push_back(std::move(x));
  }
  return out;
}

void expect_counts_equal(const std::vector<float>& want,
                         const std::vector<float>& got,
                         const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        want.size() * sizeof(float)),
            0)
      << what << ": cumulative spike counts differ bitwise";
}

TEST(StreamParity, StepByStepMatchesWholeWindowBitwise) {
  snn::MlpConfig cfg;
  cfg.in_features = 40;
  cfg.hidden = 20;
  cfg.num_classes = 10;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{40});
  Rng rng(0x57e9);
  const auto window = sample_window(7, Shape{40}, 0.3, rng);
  const auto batched = batched_view(window);
  const auto dense = net->forward(batched, {});
  const std::int64_t out = model.output_shape()[0];
  const std::vector<float> want(dense.spike_counts.data(),
                                dense.spike_counts.data() + out);

  // Sparse-forced, dense-forced, and the default heuristic must all agree,
  // at 1 and 4 threads.
  for (double crossover : {1.5, -1.0, 0.35}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("crossover=" + std::to_string(crossover) +
                   " threads=" + std::to_string(threads));
      ThreadGuard guard(threads);
      InferenceSession session(model, {.max_batch = 1,
                                       .sparse_crossover = crossover});
      StreamState stream = session.make_stream();
      std::vector<float> per_step_total(static_cast<std::size_t>(out), 0.0f);
      for (const Tensor& events : window) {
        const Tensor spikes = session.step(stream, events);
        ASSERT_EQ(spikes.numel(), out);
        for (std::int64_t i = 0; i < out; ++i)
          per_step_total[static_cast<std::size_t>(i)] += spikes.data()[i];
      }
      EXPECT_EQ(stream.steps_done(), 7);
      expect_counts_equal(want, stream.cumulative_counts(), "cumulative");
      expect_counts_equal(want, per_step_total, "sum of per-step outputs");
    }
  }
}

TEST(StreamParity, ChunkedWindowsMatchOneWindow) {
  // A client that sends 2+5 steps must land exactly where one that sent 7
  // at once does — chunk boundaries carry no state of their own.
  snn::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = 16;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{32});
  Rng rng(0xc4a9);
  const auto window = sample_window(7, Shape{32}, 0.4, rng);
  const auto batched = batched_view(window);

  InferenceSession session(model, {.max_batch = 1});
  const auto whole = session.run(batched);

  StreamState stream = session.make_stream();
  StreamState* ptr = &stream;
  const std::vector<Tensor> first(batched.begin(), batched.begin() + 2);
  const std::vector<Tensor> second(batched.begin() + 2, batched.end());
  session.run(&ptr, 1, first);
  const auto tail = session.run(&ptr, 1, second);

  const std::int64_t out = model.output_shape()[0];
  const std::vector<float> want(whole.spike_counts.data(),
                                whole.spike_counts.data() + out);
  EXPECT_EQ(stream.steps_done(), 7);
  expect_counts_equal(want, stream.cumulative_counts(), "chunked 2+5");
  // The second chunk's window counts are the tail only, not the total.
  EXPECT_EQ(tail.timesteps, 5);
}

TEST(StreamParity, MixedAgeBatchMatchesSoloStreams) {
  // The serving batcher co-schedules streams at different ages.  Each row
  // of a batched step_batch call must match a replica stream stepped alone
  // through the same inputs.
  snn::MlpConfig cfg;
  cfg.in_features = 24;
  cfg.hidden = 12;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{24});
  const std::int64_t kStreams = 4;
  Rng rng(0xba7c4);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    // record_stats stays off: the serving stack steps streams without it,
    // so this is the configuration that must hold bit for bit.
    InferenceSession batched(model,
                             {.max_batch = kStreams, .record_stats = false});
    InferenceSession solo(model, {.max_batch = 1, .record_stats = false});
    std::vector<StreamState> streams;
    std::vector<StreamState> replicas;
    for (std::int64_t s = 0; s < kStreams; ++s) {
      streams.push_back(batched.make_stream());
      replicas.push_back(solo.make_stream());
    }
    // Age the streams unevenly: stream s gets s warm-up chunks of 2 steps.
    Rng warm(0x11 + static_cast<std::uint64_t>(threads));
    for (std::int64_t s = 0; s < kStreams; ++s) {
      for (std::int64_t c = 0; c < s; ++c) {
        Rng fork = warm;  // identical inputs for stream and replica
        for (const Tensor& e : sample_window(2, Shape{24}, 0.3, warm))
          batched.step(streams[static_cast<std::size_t>(s)], e);
        for (const Tensor& e : sample_window(2, Shape{24}, 0.3, fork))
          solo.step(replicas[static_cast<std::size_t>(s)], e);
      }
    }
    // One shared 3-step batch window across all four streams...
    const auto shared = sample_window(3, Shape{kStreams, 24}, 0.35, warm);
    std::vector<StreamState*> ptrs;
    for (auto& s : streams) ptrs.push_back(&s);
    batched.run(ptrs.data(), kStreams, shared);
    // ...and the same rows fed solo to each replica.
    const std::int64_t elems = 24;
    for (std::int64_t s = 0; s < kStreams; ++s) {
      for (const Tensor& step : shared) {
        Tensor row{Shape{elems}};
        std::memcpy(row.data(), step.data() + s * elems,
                    static_cast<std::size_t>(elems) * sizeof(float));
        solo.step(replicas[static_cast<std::size_t>(s)], row);
      }
      SCOPED_TRACE("stream=" + std::to_string(s));
      EXPECT_EQ(streams[static_cast<std::size_t>(s)].steps_done(),
                replicas[static_cast<std::size_t>(s)].steps_done());
      expect_counts_equal(replicas[static_cast<std::size_t>(s)]
                              .cumulative_counts(),
                          streams[static_cast<std::size_t>(s)]
                              .cumulative_counts(),
                          "batched vs solo");
      expect_counts_equal(
          replicas[static_cast<std::size_t>(s)].membrane_arena(),
          streams[static_cast<std::size_t>(s)].membrane_arena(),
          "membranes, batched vs solo");
    }
  }
}

TEST(StreamParity, EvictRestoreRoundTripIsBitExact) {
  // Three streams bounced through a manager that can hold one in memory:
  // every chunk boundary forces an eviction, and every acquire a restore.
  // Counts AND the raw membrane arena must match never-evicted replicas.
  snn::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = 16;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{32});
  const std::uint64_t kIds[] = {11, 22, 33};

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    const std::string dir =
        fresh_dir("stream_evict_t" + std::to_string(threads));
    StreamManager manager(model, /*max_live=*/1, dir);
    InferenceSession session(model, {.max_batch = 1});
    InferenceSession ref_session(model, {.max_batch = 1});
    std::vector<StreamState> replicas;
    for (std::uint64_t id : kIds) {
      ASSERT_EQ(manager.open(id), StreamManager::OpenResult::kOk);
      replicas.push_back(ref_session.make_stream());
    }

    Rng rng(0xe71c + static_cast<std::uint64_t>(threads));
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < 3; ++i) {
        const auto chunk = sample_window(2, Shape{1, 32}, 0.4, rng);
        StreamState* st = manager.acquire(kIds[i]);
        ASSERT_NE(st, nullptr);
        StreamState* ptr = st;
        session.run(&ptr, 1, chunk);
        manager.release(kIds[i]);
        StreamState* rep = &replicas[i];
        ref_session.run(&rep, 1, chunk);
      }
    }

    const auto counters = manager.counters();
    EXPECT_GT(counters.evicted, 0) << "max_live=1 with 3 streams must spill";
    EXPECT_GT(counters.restored, 0);

    for (std::size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE("stream=" + std::to_string(kIds[i]));
      StreamState* st = manager.acquire(kIds[i]);
      ASSERT_NE(st, nullptr);
      EXPECT_EQ(st->steps_done(), replicas[i].steps_done());
      expect_counts_equal(replicas[i].cumulative_counts(),
                          st->cumulative_counts(), "counts after evict");
      ASSERT_EQ(st->membrane_arena().size(),
                replicas[i].membrane_arena().size());
      EXPECT_EQ(std::memcmp(st->membrane_arena().data(),
                            replicas[i].membrane_arena().data(),
                            st->membrane_arena().size() * sizeof(float)),
                0)
          << "membrane arena differs after an evict/restore round-trip";
      manager.release(kIds[i]);
    }
  }
}

TEST(StreamManager, LifecycleOpenAcquireCloseAndCapacity) {
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{16});

  // No spill directory: the in-memory bound is a hard capacity limit.
  StreamManager manager(model, /*max_live=*/2, "");
  EXPECT_EQ(manager.open(0), StreamManager::OpenResult::kInvalid);
  EXPECT_EQ(manager.open(7), StreamManager::OpenResult::kOk);
  EXPECT_EQ(manager.open(7), StreamManager::OpenResult::kExists);
  EXPECT_EQ(manager.open(8), StreamManager::OpenResult::kOk);
  EXPECT_EQ(manager.open(9), StreamManager::OpenResult::kCapacity);
  EXPECT_TRUE(manager.contains(7));
  EXPECT_FALSE(manager.contains(9));
  EXPECT_EQ(manager.acquire(9), nullptr);
  EXPECT_EQ(manager.acquire(0), nullptr);

  StreamState* st = manager.acquire(7);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->steps_done(), 0);
  manager.release(7);

  std::vector<float> final_counts;
  std::int64_t final_steps = -1;
  EXPECT_TRUE(manager.close(7, &final_counts, &final_steps));
  EXPECT_EQ(final_steps, 0);
  EXPECT_EQ(final_counts.size(),
            static_cast<std::size_t>(model.output_shape()[0]));
  EXPECT_FALSE(manager.contains(7));
  EXPECT_FALSE(manager.close(7, nullptr, nullptr));  // already gone
  // The closed slot frees capacity for a new stream.
  EXPECT_EQ(manager.open(9), StreamManager::OpenResult::kOk);

  const auto counters = manager.counters();
  EXPECT_EQ(counters.opened, 3);
  EXPECT_EQ(counters.closed, 1);
  EXPECT_EQ(counters.live, 2);
  EXPECT_EQ(counters.peak_live, 2);
  EXPECT_EQ(counters.evicted, 0);
}

TEST(StreamManager, CorruptSpillFailsTheAcquireButNotTheManager) {
  // An unreadable spill file must surface as a per-stream exception the
  // serving worker can answer with internal-error — never as a manager
  // left in a half-restored state.  After the failed restore the entry
  // must still be consistent: a retried acquire throws again (no UB on a
  // dangling LRU iterator), other streams are untouched, and a totals-free
  // close still tears the broken stream down.
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{16});
  const std::string dir = fresh_dir("stream_corrupt");
  StreamManager manager(model, /*max_live=*/1, dir);
  ASSERT_EQ(manager.open(1), StreamManager::OpenResult::kOk);
  ASSERT_EQ(manager.open(2), StreamManager::OpenResult::kOk);  // evicts 1

  std::string spill;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    spill = e.path().string();
  ASSERT_FALSE(spill.empty());
  std::string valid;
  {
    std::ifstream f(spill, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(f), {});
  }

  // Inputs: stream 1's spill truncated to garbage, then seeded mutations
  // that set one length field to a hostile value under valid CRCs, so the
  // restore gets past the integrity checks into the loader's bounds checks.
  std::vector<std::string> inputs = {"not an STK2 container"};
  const std::uint64_t seed = 0x5711a7e5ULL;
  SCOPED_TRACE("mutation seed " + std::to_string(seed));
  Rng rng(seed);
  const auto fields = testing_stk2::length_fields(valid);
  const auto& values = testing_stk2::hostile_values();
  while (inputs.size() < 13) {
    const auto& field = fields[rng.uniform_int(fields.size())];
    std::string bad = testing_stk2::with_field(
        valid, field, values[rng.uniform_int(values.size())]);
    if (bad != valid) inputs.push_back(std::move(bad));
  }

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    {
      std::ofstream f(spill, std::ios::binary | std::ios::trunc);
      f << inputs[i];
    }
    // Retried: the failed restore left the entry clean, so it fails again.
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        manager.acquire(1);
        manager.release(1);  // unpin, or the next acquire would wait forever
        ADD_FAILURE() << "restore accepted a corrupt spill file";
      } catch (const InvalidArgument&) {
      }
    }
    EXPECT_TRUE(manager.contains(1));

    // The healthy stream is unaffected (acquiring it evicts nothing broken).
    StreamState* ok = manager.acquire(2);
    ASSERT_NE(ok, nullptr);
    manager.release(2);
  }

  // Totals require a restore, so they are lost — but a totals-free close
  // must still free the id, and the slot is reusable afterwards.
  std::int64_t steps = 0;
  EXPECT_THROW(manager.close(1, nullptr, &steps), Error);
  EXPECT_TRUE(manager.close(1, nullptr, nullptr));
  EXPECT_FALSE(manager.contains(1));
  EXPECT_EQ(manager.open(1), StreamManager::OpenResult::kOk);
  StreamState* reopened = manager.acquire(1);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->steps_done(), 0);
  manager.release(1);
}

TEST(StreamManager, CheckpointAllWritesEachOpenStreamExactlyOnce) {
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{16});
  const std::string dir = fresh_dir("stream_drain");
  StreamManager manager(model, /*max_live=*/8, dir);
  for (std::uint64_t id : {1, 2, 3})
    ASSERT_EQ(manager.open(id), StreamManager::OpenResult::kOk);

  EXPECT_EQ(manager.checkpoint_all(), 3u);
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 3u);
  EXPECT_EQ(manager.counters().checkpointed, 3);

  // Spilling disabled: drain writes nothing and reports nothing.
  StreamManager bare(model, /*max_live=*/8, "");
  ASSERT_EQ(bare.open(4), StreamManager::OpenResult::kOk);
  EXPECT_EQ(bare.checkpoint_all(), 0u);
}

}  // namespace
}  // namespace spiketune::infer

namespace spiketune::serve {
namespace {

// --- streaming wire messages ------------------------------------------------

/// The payload of a complete frame: everything after the header.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + kHeaderBytes, frame.end()};
}

TEST(StreamProtocol, ControlStepAndCloseReplyRoundTrip) {
  StreamControl ctl;
  ctl.request_id = 5;
  ctl.stream_id = 0xdeadbeefcafe0001ULL;
  const StreamControl cback =
      decode_stream_control(5, payload_of(stream_open_frame(ctl)));
  EXPECT_EQ(cback.stream_id, ctl.stream_id);

  StreamStepRequest step;
  step.stream_id = 42;
  step.request.request_id = 6;
  step.request.num_steps = 2;
  step.request.elems_per_step = 3;
  step.request.deadline_us = 1500;
  step.request.data = {1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 1.0f};
  const StreamStepRequest sback =
      decode_stream_step(6, payload_of(stream_step_frame(step)));
  EXPECT_EQ(sback.stream_id, 42u);
  EXPECT_EQ(sback.request.num_steps, 2u);
  EXPECT_EQ(sback.request.elems_per_step, 3u);
  EXPECT_EQ(sback.request.deadline_us, 1500u);
  ASSERT_EQ(sback.request.data.size(), 6u);
  EXPECT_EQ(std::memcmp(sback.request.data.data(), step.request.data.data(),
                        6 * sizeof(float)),
            0);

  StreamCloseReply reply;
  reply.request_id = 7;
  reply.stream_id = 42;
  reply.steps_done = 9001;
  reply.cumulative_counts = {3.0f, 0.0f, 12.0f};
  const StreamCloseReply rback =
      decode_stream_close_reply(7, payload_of(stream_close_reply_frame(reply)));
  EXPECT_EQ(rback.stream_id, 42u);
  EXPECT_EQ(rback.steps_done, 9001u);
  ASSERT_EQ(rback.cumulative_counts.size(), 3u);
  EXPECT_EQ(std::memcmp(rback.cumulative_counts.data(),
                        reply.cumulative_counts.data(), 3 * sizeof(float)),
            0);

  // Truncated payloads are rejected, not misread.
  auto cut = payload_of(stream_step_frame(step));
  cut.resize(cut.size() - 1);
  EXPECT_THROW(decode_stream_step(6, cut), InvalidArgument);
  EXPECT_THROW(decode_stream_control(5, {1, 2, 3}), InvalidArgument);
}

// --- batcher: same-stream exclusion -----------------------------------------

PendingRequest stream_chunk(std::uint64_t stream_id, std::uint64_t id,
                            std::uint32_t num_steps = 4) {
  PendingRequest p;
  p.request.request_id = id;
  p.request.num_steps = num_steps;
  p.stream_id = stream_id;
  return p;
}

std::vector<PendingRequest> take_batch(Batcher& b) {
  std::vector<PendingRequest> expired;
  std::vector<PendingRequest> batch = b.next_batch(expired);
  EXPECT_TRUE(expired.empty());
  return batch;
}

TEST(StreamBatcher, SameStreamChunksNeverShareABatch) {
  // Stream 5 has two chunks queued; stream 6 and a plain request ride
  // along.  The first batch takes 5's FIRST chunk + 6 + plain (arrival
  // order, skipping 5's second chunk); once the first batch hands its
  // streams back, the next batch carries the held chunk so stream state
  // advances strictly in order.
  Batcher b({.max_batch = 8, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(stream_chunk(5, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(stream_chunk(5, 2)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(stream_chunk(6, 3)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(stream_chunk(0, 4)), AdmitResult::kAdmitted);

  const auto first = take_batch(b);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].request.request_id, 1u);
  EXPECT_EQ(first[1].request.request_id, 3u);
  EXPECT_EQ(first[2].request.request_id, 4u);

  b.finish_stream(5);
  b.finish_stream(6);
  const auto second = take_batch(b);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].request.request_id, 2u);
  EXPECT_EQ(second[0].stream_id, 5u);
  EXPECT_EQ(b.depth(), 0u);
}

TEST(StreamBatcher, InFlightStreamBlocksItsNextChunkAcrossBatches) {
  // Two pipelined chunks of stream 9: while chunk 1's batch is still in
  // flight (finish_stream not yet called), chunk 2 must be invisible to
  // every next_batch call — otherwise a second worker could win the
  // acquire race and advance the stream out of order.  A plain request
  // proves the batcher still serves everything else meanwhile.
  Batcher b({.max_batch = 8, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(stream_chunk(9, 1)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(stream_chunk(9, 2)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(stream_chunk(0, 3)), AdmitResult::kAdmitted);

  const auto first = take_batch(b);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].request.request_id, 1u);
  EXPECT_EQ(first[1].request.request_id, 3u);
  EXPECT_EQ(b.depth(), 1u);  // chunk 2 held behind the in-flight stream

  // A second worker arriving now must block, not grab chunk 2: simulate
  // with a thread whose take_batch only completes after finish_stream.
  std::atomic<bool> got{false};
  std::vector<PendingRequest> taken;
  std::thread worker([&] {
    taken = take_batch(b);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(got.load()) << "chunk 2 handed out while chunk 1 in flight";
  b.finish_stream(9);
  worker.join();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].request.request_id, 2u);
  b.finish_stream(9);
  EXPECT_EQ(b.depth(), 0u);
}

TEST(StreamBatcher, PlainRequestsStillCoalesceFreely) {
  // stream_id == 0 is the plain-request sentinel: many of them share one
  // batch exactly as before the streaming opcodes existed.
  Batcher b({.max_batch = 8, .batch_timeout_us = 0, .max_queue_depth = 16});
  for (std::uint64_t i = 1; i <= 4; ++i)
    ASSERT_EQ(b.submit(stream_chunk(0, i)), AdmitResult::kAdmitted);
  EXPECT_EQ(take_batch(b).size(), 4u);
}

TEST(StreamBatcher, ExclusionComposesWithWindowLengthRule) {
  // A held-back same-stream chunk must not leapfrog via the T-mismatch
  // path either: chunks coalesce only when BOTH rules pass.
  Batcher b({.max_batch = 8, .batch_timeout_us = 0, .max_queue_depth = 16});
  ASSERT_EQ(b.submit(stream_chunk(9, 1, 4)), AdmitResult::kAdmitted);
  ASSERT_EQ(b.submit(stream_chunk(9, 2, 2)), AdmitResult::kAdmitted);

  const auto first = take_batch(b);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].request.request_id, 1u);
  b.finish_stream(9);
  const auto second = take_batch(b);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].request.request_id, 2u);
}

}  // namespace
}  // namespace spiketune::serve
