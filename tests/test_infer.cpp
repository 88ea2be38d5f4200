// Dense-vs-session parity for the sparsity-aware inference engine.
//
// InferenceSession promises results *bit-identical* to
// SpikingNetwork::forward — same spike counts, same recorded activity —
// for every model-zoo topology, at any thread count, on either side of the
// sparse/dense crossover.  These tests pin that contract with random
// weights and density-controlled random inputs, and exercise the session
// lifecycle (reuse across windows, buffer growth past max_batch) plus the
// compile-time rejection of unsupported layers.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "infer/session.h"
#include "snn/conv2d.h"
#include "snn/layers.h"
#include "snn/lif.h"
#include "snn/linear.h"
#include "snn/model_zoo.h"
#include "snn/network.h"
#include "snn/pool.h"
#include "snn/rlif.h"
#include "tensor/tensor_ops.h"

namespace spiketune::infer {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int threads) { set_num_threads(threads); }
  ~ThreadGuard() { set_num_threads(1); }
};

// A window of `steps` batches where each element is nonzero with the given
// probability — both dispatch paths see realistic mixed-density inputs.
// `binary` makes the nonzeros 1.0 (rate-coded spikes, as served) instead
// of normal draws.
std::vector<Tensor> random_window(std::int64_t steps, Shape shape,
                                  double density, Rng& rng,
                                  bool binary = false) {
  std::vector<Tensor> window;
  window.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 0; t < steps; ++t) {
    Tensor x = Tensor::full(shape, 0.0f);
    float* p = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      if (rng.uniform() < density)
        p[i] = binary ? 1.0f : static_cast<float>(rng.normal());
    }
    window.push_back(std::move(x));
  }
  return window;
}

void expect_bitwise_equal(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.shape(), got.shape());
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0)
      << "spike counts differ bitwise";
}

void expect_records_equal(const snn::SpikeRecord& want,
                          const snn::SpikeRecord& got) {
  ASSERT_EQ(want.num_layers(), got.num_layers());
  for (std::size_t i = 0; i < want.num_layers(); ++i) {
    const auto& w = want.layers()[i];
    const auto& g = got.layers()[i];
    EXPECT_EQ(w.layer_name, g.layer_name) << "layer " << i;
    EXPECT_EQ(w.spiking, g.spiking) << "layer " << i;
    EXPECT_EQ(w.input_nonzeros, g.input_nonzeros) << w.layer_name;
    EXPECT_EQ(w.input_elements, g.input_elements) << w.layer_name;
    EXPECT_EQ(w.output_nonzeros, g.output_nonzeros) << w.layer_name;
    EXPECT_EQ(w.output_elements, g.output_elements) << w.layer_name;
  }
  EXPECT_EQ(want.total_samples(), got.total_samples());
  EXPECT_DOUBLE_EQ(want.mean_firing_rate(), got.mean_firing_rate());
}

// Runs `window` through `session` on fresh streams and returns every
// stream's membrane arena after the last step, concatenated.
std::vector<float> run_streams(InferenceSession& session,
                               const std::vector<Tensor>& window,
                               InferenceResult& result) {
  const std::int64_t n = window.front().shape()[0];
  std::vector<StreamState> streams(static_cast<std::size_t>(n),
                                   session.make_stream());
  std::vector<StreamState*> ptrs;
  for (auto& stream : streams) ptrs.push_back(&stream);
  result = session.run(ptrs.data(), n, window);
  std::vector<float> membranes;
  for (const auto& stream : streams)
    membranes.insert(membranes.end(), stream.membrane_arena().begin(),
                     stream.membrane_arena().end());
  return membranes;
}

// Membranes a one-thread session at `crossover` leaves after `window`.
std::vector<float> window_membranes(const CompiledModel& model,
                                    const std::vector<Tensor>& window,
                                    double crossover) {
  InferenceSession session(model, {.max_batch = window.front().shape()[0],
                                   .sparse_crossover = crossover});
  InferenceResult unused;
  return run_streams(session, window, unused);
}

void expect_membranes_equal(const std::vector<float>& want,
                            const std::vector<float>& got) {
  EXPECT_TRUE(want.size() == got.size() &&
              std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(float)) == 0)
      << "membranes differ bitwise";
}

// Runs the window through the dense training path once, then through a
// session at 1 and 4 threads, with record_stats (and the stage clocks) off
// and on, asserting bitwise-equal spike counts every time, identical
// activity records when recorded, and dispatch decisions that do not
// depend on what is being recorded.  Spike counts can hide a rounding
// difference below threshold, so every run must also leave the membranes
// of the one-thread, unrecorded run, bit for bit.  Returns the dense
// path's record.
snn::SpikeRecord check_parity(snn::SpikingNetwork& net,
                              const Shape& per_sample,
                              const std::vector<Tensor>& window,
                              double crossover) {
  const auto dense = net.forward(window, {.record_stats = true});
  const auto model = CompiledModel::compile(net, per_sample);
  const auto want_membranes = window_membranes(model, window, crossover);
  for (int threads : {1, 4}) {
    ThreadGuard guard(threads);
    InferenceResult first;
    for (bool record : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " record_stats=" + std::to_string(record));
      InferenceSession session(model,
                               {.max_batch = window.front().shape()[0],
                                .sparse_crossover = crossover,
                                .record_stats = record,
                                .record_stage_times = record});
      InferenceResult got;
      expect_membranes_equal(want_membranes, run_streams(session, window, got));
      EXPECT_EQ(got.timesteps, dense.timesteps);
      expect_bitwise_equal(dense.spike_counts, got.spike_counts);
      if (record) {
        expect_records_equal(dense.stats, got.stats);
        EXPECT_EQ(got.sparse_dispatches, first.sparse_dispatches);
        EXPECT_EQ(got.mean_input_density, first.mean_input_density);
      } else {
        first = got;
      }
      if (crossover >= 1.0) {
        EXPECT_EQ(got.dense_dispatches, 0);
      }
      if (crossover < 0.0) {
        EXPECT_EQ(got.sparse_dispatches, 0);
      }
      EXPECT_GE(got.mean_input_density, 0.0);
      EXPECT_LE(got.mean_input_density, 1.0);
    }
  }
  return dense.stats;
}

// The sparse kernels must fold each output's terms in the dense kernels'
// order, with the same one multiply-add per term, so both leave the same
// membranes: conv and linear layers alike, on 0/1 and real-valued inputs,
// with or without FMA contraction.
void expect_kernels_agree_on_membranes(snn::SpikingNetwork& net,
                                       const Shape& per_sample,
                                       const std::vector<Tensor>& window) {
  const auto model = CompiledModel::compile(net, per_sample);
  expect_membranes_equal(window_membranes(model, window, -1.0),
                         window_membranes(model, window, 1.5));
}

// Parity through a silent layer proves little about the layers after it.
void expect_every_lif_fires(const snn::SpikeRecord& record) {
  for (const auto& layer : record.layers()) {
    if (layer.layer_name == "lif") {
      EXPECT_GT(layer.output_nonzeros, 0);
    }
  }
}

TEST(InferParity, MlpMatchesDenseForwardAtBothDensities) {
  snn::MlpConfig cfg;
  cfg.in_features = 48;
  cfg.hidden = 24;
  cfg.num_classes = 10;
  auto net = snn::make_snn_mlp(cfg);
  Rng rng(0x1f2e3d);
  for (double density : {0.15, 0.85}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    auto window = random_window(6, Shape{5, 48}, density, rng);
    check_parity(*net, Shape{48}, window, /*crossover=*/0.35);
    expect_kernels_agree_on_membranes(*net, Shape{48}, window);
  }
}

TEST(InferParity, CsnnMatchesDenseForwardAtBothDensities) {
  snn::CsnnConfig cfg;
  cfg.image_size = 12;
  cfg.fc_hidden = 32;
  auto net = snn::make_svhn_csnn(cfg);
  Rng rng(0x7a57e);
  for (double density : {0.1, 0.9}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    auto window = random_window(4, Shape{3, 3, 12, 12}, density, rng);
    check_parity(*net, Shape{3, 12, 12}, window, /*crossover=*/0.35);
    expect_kernels_agree_on_membranes(*net, Shape{3, 12, 12}, window);
  }
}

TEST(InferParity, CsnnOddImageSizeDropsPoolTails) {
  // 13x13 inputs: both 2x2 pools floor, dropping the last row and column
  // (13 -> 6 after the avg-pool, 6 -> 3 after the max-pool).
  snn::CsnnConfig cfg;
  cfg.image_size = 13;
  cfg.fc_hidden = 24;
  cfg.init_gain = 4.0f;  // enough current for every layer to fire
  auto net = snn::make_svhn_csnn(cfg);
  Rng rng(0x0dd13);
  auto window = random_window(4, Shape{5, 3, 13, 13}, 0.3, rng);
  for (double crossover : {1.5, -1.0}) {
    SCOPED_TRACE("crossover=" + std::to_string(crossover));
    expect_every_lif_fires(
        check_parity(*net, Shape{3, 13, 13}, window, crossover));
  }
  expect_kernels_agree_on_membranes(*net, Shape{3, 13, 13}, window);
}

TEST(InferParity, CsnnServedShapeRateCoded) {
  // The served model and input: csnn at beta 0.5 / theta 1.5 on 3x32x32
  // frames of 0/1 rate-coded spikes.  Batch 6 splits unevenly over 4
  // participants.
  snn::CsnnConfig cfg;
  cfg.lif.beta = 0.5f;
  cfg.lif.threshold = 1.5f;
  cfg.init_gain = 5.0f;  // binary inputs need a larger gain to reach fc2
  auto net = snn::make_svhn_csnn(cfg);
  Rng rng(0x5e7ed);
  auto window = random_window(4, Shape{6, 3, 32, 32}, 0.15, rng,
                              /*binary=*/true);
  for (double crossover : {1.5, -1.0}) {
    SCOPED_TRACE("crossover=" + std::to_string(crossover));
    expect_every_lif_fires(
        check_parity(*net, Shape{3, 32, 32}, window, crossover));
  }
  expect_kernels_agree_on_membranes(*net, Shape{3, 32, 32}, window);
}

TEST(InferParity, ConvWithoutPoolMatchesDenseForward) {
  // A conv block with no pool runs the epilogue with k = 1: the LIF's
  // spikes go from the channel-last row straight into the CHW plane the
  // flatten hands to the linear layer.  The conv is padded and bias-free.
  snn::SpikingNetwork net;
  Rng init(0xc0a1);
  net.add<snn::Conv2d>(snn::Conv2dConfig{3, 8, 3, 1, false}, init);
  net.add<snn::Lif>(snn::LifConfig{});
  net.add<snn::Flatten>();
  net.add<snn::Linear>(snn::LinearConfig{8 * 12 * 9, 12}, init);
  net.add<snn::Lif>(snn::LifConfig{});
  for (snn::Param* p : net.params()) ops::scale_(p->value, 3.0f);
  const Shape per_sample{3, 12, 9};
  Rng rng(0x9001);
  auto window = random_window(4, Shape{5, 3, 12, 9}, 0.3, rng);
  for (double crossover : {1.5, -1.0}) {
    SCOPED_TRACE("crossover=" + std::to_string(crossover));
    expect_every_lif_fires(check_parity(net, per_sample, window, crossover));
  }
  expect_kernels_agree_on_membranes(net, per_sample, window);
}

TEST(InferParity, NonSquareInputAndOddPoolWindowsMatchDenseForward) {
  // 3x21x16 input: conv1 gives 19x14, whose 3x3 avg-pool floors one row
  // and two columns (6x4); the padded conv2 keeps 6x4 for a 2x2 max-pool.
  // Pool windows other than 2, and rows that differ from columns, are
  // what the csnn tests do not reach.
  snn::SpikingNetwork net;
  Rng init(0x0dd3);
  net.add<snn::Conv2d>(snn::Conv2dConfig{3, 6, 3}, init);
  net.add<snn::Lif>(snn::LifConfig{});
  net.add<snn::AvgPool2d>(3);
  net.add<snn::Conv2d>(snn::Conv2dConfig{6, 8, 3, 1}, init);
  net.add<snn::Lif>(snn::LifConfig{});
  net.add<snn::MaxPool2d>(2);
  net.add<snn::Flatten>();
  net.add<snn::Linear>(snn::LinearConfig{8 * 3 * 2, 10}, init);
  net.add<snn::Lif>(snn::LifConfig{});
  for (snn::Param* p : net.params()) ops::scale_(p->value, 4.0f);
  const Shape per_sample{3, 21, 16};
  Rng rng(0x5e3);
  auto window = random_window(4, Shape{5, 3, 21, 16}, 0.3, rng);
  for (double crossover : {1.5, -1.0}) {
    SCOPED_TRACE("crossover=" + std::to_string(crossover));
    expect_every_lif_fires(check_parity(net, per_sample, window, crossover));
  }
  expect_kernels_agree_on_membranes(net, per_sample, window);
}

TEST(InferParity, CrossoverForcesEachKernelWithoutChangingResults) {
  snn::MlpConfig cfg;
  cfg.in_features = 40;
  cfg.hidden = 20;
  auto net = snn::make_snn_mlp(cfg);
  Rng rng(0xc0ffee);
  const std::int64_t steps = 5;
  auto window = random_window(steps, Shape{4, 40}, 0.5, rng);
  const auto dense = net->forward(window, {.record_stats = true});
  const auto model = CompiledModel::compile(*net, Shape{40});
  const std::int64_t weighted_layers = 2;  // two Linear stages

  // >= 1 forces the sparse gather kernel on every layer-step.
  InferenceSession sparse_only(model, {.max_batch = 4,
                                       .sparse_crossover = 1.5,
                                       .record_stats = true});
  const auto got_sparse = sparse_only.run(window);
  EXPECT_EQ(got_sparse.sparse_dispatches, steps * weighted_layers);
  EXPECT_EQ(got_sparse.dense_dispatches, 0);
  expect_bitwise_equal(dense.spike_counts, got_sparse.spike_counts);
  expect_records_equal(dense.stats, got_sparse.stats);

  // < 0 forces the dense GEMM fallback on every layer-step.
  InferenceSession dense_only(model, {.max_batch = 4,
                                      .sparse_crossover = -1.0,
                                      .record_stats = true});
  const auto got_dense = dense_only.run(window);
  EXPECT_EQ(got_dense.sparse_dispatches, 0);
  EXPECT_EQ(got_dense.dense_dispatches, steps * weighted_layers);
  expect_bitwise_equal(dense.spike_counts, got_dense.spike_counts);
  expect_records_equal(dense.stats, got_dense.stats);
}

TEST(InferSession, ReusesStateAcrossWindowsAndGrowsPastMaxBatch) {
  snn::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = 16;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{32});
  Rng rng(0x5e55);

  // Deliberately small capacity: the second window (batch 6) must grow the
  // buffers, and the membrane state must reset between windows.
  InferenceSession session(model, {.max_batch = 2, .record_stats = true});
  auto first = random_window(4, Shape{2, 32}, 0.4, rng);
  auto second = random_window(3, Shape{6, 32}, 0.7, rng);

  const auto got_first = session.run(first);
  const auto got_second = session.run(second);

  const auto want_first = net->forward(first, {.record_stats = true});
  const auto want_second = net->forward(second, {.record_stats = true});
  expect_bitwise_equal(want_first.spike_counts, got_first.spike_counts);
  expect_bitwise_equal(want_second.spike_counts, got_second.spike_counts);
  expect_records_equal(want_second.stats, got_second.stats);
}

TEST(InferSession, InterleavedBatchSizesLeakNoState) {
  // The serving daemon feeds ONE session batches whose size jumps around
  // with traffic (grow, shrink, grow again).  Shrinking is the dangerous
  // direction: rows past the new batch still hold the previous window's
  // membrane potentials and spike indices, and any kernel that iterates by
  // capacity instead of batch would read them.  Every window must match a
  // fresh dense forward bitwise, in any order, at 1 and 4 threads.
  snn::MlpConfig cfg;
  cfg.in_features = 32;
  cfg.hidden = 16;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{32});

  const std::int64_t batch_plan[] = {8, 2, 16, 1, 16, 3};
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadGuard guard(threads);
    Rng rng(0xbadc0de + static_cast<std::uint64_t>(threads));
    InferenceSession session(model, {.max_batch = 4, .record_stats = true});
    for (std::int64_t n : batch_plan) {
      SCOPED_TRACE("batch=" + std::to_string(n));
      // Varying T and density across windows too, as mixed traffic would.
      const std::int64_t steps = 2 + (n % 3);
      auto window = random_window(steps, Shape{n, 32}, 0.1 + 0.05 * n, rng);
      const auto got = session.run(window);
      const auto want = net->forward(window, {.record_stats = true});
      expect_bitwise_equal(want.spike_counts, got.spike_counts);
      expect_records_equal(want.stats, got.stats);
    }
  }
}

TEST(InferSession, BatchedRowEqualsSoloRunBitwise) {
  // Per-sample batch invariance — the foundation of the serve parity gate:
  // a sample's spike counts in a batch of N equal the counts from running
  // it alone, whatever its batchmates are.
  snn::MlpConfig cfg;
  cfg.in_features = 24;
  cfg.hidden = 12;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{24});
  Rng rng(0x0107);
  const std::int64_t batch = 5;
  const std::int64_t steps = 4;
  auto window = random_window(steps, Shape{batch, 24}, 0.3, rng);

  InferenceSession batched(model, {.max_batch = batch});
  const auto all = batched.run(window);
  const std::int64_t out = model.output_shape()[0];

  for (std::int64_t i = 0; i < batch; ++i) {
    SCOPED_TRACE("row=" + std::to_string(i));
    std::vector<Tensor> solo_window;
    for (std::int64_t t = 0; t < steps; ++t) {
      Tensor x{Shape{1, 24}};
      std::memcpy(x.data(), window[static_cast<std::size_t>(t)].data() + i * 24,
                  24 * sizeof(float));
      solo_window.push_back(std::move(x));
    }
    InferenceSession solo(model, {.max_batch = 1});
    const auto one = solo.run(solo_window);
    EXPECT_EQ(std::memcmp(one.spike_counts.data(),
                          all.spike_counts.data() + i * out,
                          static_cast<std::size_t>(out) * sizeof(float)),
              0)
        << "row " << i << " differs from its solo run";
  }
}

TEST(InferCompile, MetadataMirrorsNetwork) {
  snn::CsnnConfig cfg;
  cfg.image_size = 12;
  cfg.fc_hidden = 32;
  auto net = snn::make_svhn_csnn(cfg);
  const auto model = CompiledModel::compile(*net, Shape{3, 12, 12});
  EXPECT_EQ(model.num_layers(), net->num_layers());
  EXPECT_EQ(model.num_parameters(), net->num_parameters());
  EXPECT_EQ(model.input_shape(), Shape({3, 12, 12}));
  EXPECT_EQ(model.output_shape(), net->output_shape(Shape{3, 12, 12}));

  const auto want = net->make_record();
  const auto got = model.make_record();
  ASSERT_EQ(want.num_layers(), got.num_layers());
  for (std::size_t i = 0; i < want.num_layers(); ++i) {
    EXPECT_EQ(want.layers()[i].layer_name, got.layers()[i].layer_name);
    EXPECT_EQ(want.layers()[i].spiking, got.layers()[i].spiking);
  }
}

TEST(InferCompile, RejectsUnsupportedLayers) {
  snn::SpikingNetwork net;
  snn::RlifConfig rcfg;
  rcfg.features = 8;
  net.add<snn::Rlif>(rcfg);
  EXPECT_THROW(CompiledModel::compile(net, Shape{8}), InvalidArgument);
}

TEST(InferCompile, RejectsBlocksTheEpilogueCannotRun) {
  // Every conv/linear layer must be followed by a LIF, and a pool must come
  // directly after that LIF.
  Rng rng(0xb10c);
  {
    SCOPED_TRACE("pool before the LIF");
    snn::SpikingNetwork net;
    net.add<snn::Conv2d>(snn::Conv2dConfig{3, 4, 3}, rng);
    net.add<snn::MaxPool2d>(2);
    net.add<snn::Lif>(snn::LifConfig{});
    net.add<snn::Flatten>();
    net.add<snn::Linear>(snn::LinearConfig{4 * 5 * 5, 6}, rng);
    net.add<snn::Lif>(snn::LifConfig{});
    EXPECT_THROW(CompiledModel::compile(net, Shape{3, 12, 12}),
                 InvalidArgument);
  }
  {
    SCOPED_TRACE("conv without a LIF");
    snn::SpikingNetwork net;
    net.add<snn::Conv2d>(snn::Conv2dConfig{3, 4, 3}, rng);
    net.add<snn::Flatten>();
    net.add<snn::Linear>(snn::LinearConfig{4 * 10 * 10, 6}, rng);
    net.add<snn::Lif>(snn::LifConfig{});
    EXPECT_THROW(CompiledModel::compile(net, Shape{3, 12, 12}),
                 InvalidArgument);
  }
  {
    SCOPED_TRACE("second pool after the LIF's pool");
    snn::SpikingNetwork net;
    net.add<snn::Conv2d>(snn::Conv2dConfig{3, 4, 3}, rng);
    net.add<snn::Lif>(snn::LifConfig{});
    net.add<snn::AvgPool2d>(2);
    net.add<snn::MaxPool2d>(1);
    net.add<snn::Flatten>();
    net.add<snn::Linear>(snn::LinearConfig{4 * 5 * 5, 6}, rng);
    net.add<snn::Lif>(snn::LifConfig{});
    EXPECT_THROW(CompiledModel::compile(net, Shape{3, 12, 12}),
                 InvalidArgument);
  }
  {
    SCOPED_TRACE("linear without a LIF");
    snn::SpikingNetwork net;
    net.add<snn::Linear>(snn::LinearConfig{8, 6}, rng);
    net.add<snn::Linear>(snn::LinearConfig{6, 4}, rng);
    net.add<snn::Lif>(snn::LifConfig{});
    EXPECT_THROW(CompiledModel::compile(net, Shape{8}), InvalidArgument);
  }
}

TEST(InferSession, RejectsMismatchedInputs) {
  snn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = snn::make_snn_mlp(cfg);
  const auto model = CompiledModel::compile(*net, Shape{16});
  InferenceSession session(model);
  EXPECT_THROW(session.run({}), InvalidArgument);
  Rng rng(1);
  auto wrong = random_window(2, Shape{3, 17}, 0.5, rng);
  EXPECT_THROW(session.run(wrong), InvalidArgument);
  // Steps with mismatched batch sizes are rejected too.
  std::vector<Tensor> ragged;
  ragged.push_back(Tensor::full(Shape{2, 16}, 0.0f));
  ragged.push_back(Tensor::full(Shape{3, 16}, 0.0f));
  EXPECT_THROW(session.run(ragged), InvalidArgument);
}

}  // namespace
}  // namespace spiketune::infer
