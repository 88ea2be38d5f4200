// MICRO — google-benchmark suite for the hot kernels underpinning training,
// inference and simulation: GEMM variants (square, and at the csnn training
// shapes), im2col, conv forward/backward, conv2's input gradient, conv1's
// weight gradient, the LIF step, one LIF training window, one spike-sparse
// conv training step, one whole csnn training step (loader to optimizer),
// spike encoders, the end-to-end CSNN timestep, one streaming inference
// step, and the hardware models (allocator, analytic analysis, event-sim
// tick).
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "data/synth_svhn.h"
#include "hw/event_sim.h"
#include "hw/perf_model.h"
#include "infer/session.h"
#include "snn/conv2d.h"
#include "snn/lif.h"
#include "snn/loss.h"
#include "snn/model_zoo.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/spike_conv.h"
#include "train/optimizer.h"

using namespace spiketune;

namespace {

std::vector<float> random_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Applies the benchmark's `threads` argument for its duration and restores
// the serial default afterwards so later benchmarks are unaffected.
class ThreadsArg {
 public:
  explicit ThreadsArg(benchmark::State& state, int arg = 1)
      : threads_(static_cast<int>(state.range(arg))) {
    set_num_threads(threads_);
  }
  ~ThreadsArg() { set_num_threads(1); }
  ThreadsArg(const ThreadsArg&) = delete;
  ThreadsArg& operator=(const ThreadsArg&) = delete;

 private:
  int threads_;
};

const std::vector<std::int64_t> kThreadCounts{1, 2, 4};

// Minor page faults of this process so far.
long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ThreadsArg threads(state);
  Rng rng(1);
  const auto a = random_vec(n * n, rng);
  const auto b = random_vec(n * n, rng);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)
    ->UseRealTime()
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{64, 128, 256}, kThreadCounts});

void BM_GemmSparseSpikes(benchmark::State& state) {
  // Spike-matrix GEMM: A is binary with the given density(%); the kernel's
  // zero-skip makes this the software analog of event-driven compute.
  const std::int64_t n = 256;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  ThreadsArg threads(state);
  Rng rng(2);
  std::vector<float> a(static_cast<std::size_t>(n * n), 0.0f);
  for (auto& x : a) x = rng.bernoulli(density) ? 1.0f : 0.0f;
  const auto b = random_vec(n * n, rng);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmSparseSpikes)
    ->UseRealTime()
    ->ArgNames({"density", "threads"})
    ->ArgsProduct({{5, 20, 100}, kThreadCounts});

// The three GEMM kernels at the csnn's training shapes (SynthSvhn 16x16,
// batch 32): m, n, k, threads.
using GemmFn = void (*)(std::int64_t, std::int64_t, std::int64_t, float,
                        const float*, const float*, float, float*);

void gemm_shape_bench(benchmark::State& state, GemmFn fn) {
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  ThreadsArg threads(state, 3);
  Rng rng(3);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    fn(m, n, k, 1.0f, a.data(), b.data(), 1.0f, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}

void gemm_shape_args(benchmark::internal::Benchmark* b,
                     const std::vector<std::vector<std::int64_t>>& shapes) {
  b->UseRealTime()->ArgNames({"m", "n", "k", "threads"});
  for (const auto& s : shapes)
    for (std::int64_t t : kThreadCounts) b->Args({s[0], s[1], s[2], t});
}

// conv2 forward W*cols; fc1 input gradient go*W.
void BM_GemmNn(benchmark::State& state) { gemm_shape_bench(state, gemm); }
BENCHMARK(BM_GemmNn)->Apply([](benchmark::internal::Benchmark* b) {
  gemm_shape_args(b, {{32, 64, 288}, {32, 512, 256}});
});

// conv2 and conv1 weight gradients go*cols'; fc1 forward x*W'.
void BM_GemmNt(benchmark::State& state) { gemm_shape_bench(state, gemm_nt); }
BENCHMARK(BM_GemmNt)->Apply([](benchmark::internal::Benchmark* b) {
  gemm_shape_args(b, {{32, 288, 64}, {32, 27, 256}, {32, 256, 512}});
});

// conv2 input gradient W'*go; fc1 weight gradient go'*x.
void BM_GemmTn(benchmark::State& state) { gemm_shape_bench(state, gemm_tn); }
BENCHMARK(BM_GemmTn)->Apply([](benchmark::internal::Benchmark* b) {
  gemm_shape_args(b, {{288, 64, 32}, {256, 512, 32}});
});

void BM_Im2col(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  ThreadsArg threads(state);
  ConvGeom g{32, s, s, 3, 3, 0, 0, 1, 1};
  Rng rng(3);
  const auto img = random_vec(g.channels * s * s, rng);
  std::vector<float> cols(
      static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  for (auto _ : state) {
    im2col(g, img.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)
    ->UseRealTime()
    ->ArgNames({"s", "threads"})
    ->ArgsProduct({{16, 32}, kThreadCounts});

void BM_ConvForward(benchmark::State& state) {
  const std::int64_t img = state.range(0);
  ThreadsArg threads(state);
  Rng rng(4);
  snn::Conv2d conv(snn::Conv2dConfig{3, 32, 3}, rng);
  Tensor x = Tensor::uniform(Shape{8, 3, img, img}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    // A fresh window each time: within one, a repeated input reuses the
    // previous step's output instead of convolving.
    conv.begin_window(8, false);
    const Tensor& y = conv.forward_step(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward)
    ->UseRealTime()
    ->ArgNames({"img", "threads"})
    ->ArgsProduct({{16, 32}, kThreadCounts});

void BM_ConvBackward(benchmark::State& state) {
  const std::int64_t img = state.range(0);
  ThreadsArg threads(state);
  Rng rng(5);
  snn::Conv2d conv(snn::Conv2dConfig{3, 32, 3}, rng);
  Tensor x = Tensor::uniform(Shape{8, 3, img, img}, rng, -1.0f, 1.0f);
  const Shape out_shape{8, 32, img - 2, img - 2};
  Tensor g = Tensor::uniform(out_shape, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    state.PauseTiming();
    conv.begin_window(8, true);
    conv.forward_step(x);
    state.ResumeTiming();
    const Tensor& gx = conv.backward_step(g);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_ConvBackward)
    ->UseRealTime()
    ->ArgNames({"img", "threads"})
    ->ArgsProduct({{16, 32}, kThreadCounts});

// conv2's input gradient for one batch-32 step at the csnn's 16x16 and
// 32x32 shapes (32 -> 32 channels, 3x3; 7x7 -> 5x5 and 15x15 -> 13x13),
// one thread.  Path 0 is Conv2d's kernel pair, rows from the nonzero
// output gradients then the per-pixel gather; path 1 is the gemm_tn +
// col2im it replaced, with a pad-0 copy of col2im here.  Density 17 puts
// one value in each whole 2x2 window of each plane, as a max pool's
// backward leaves it (16 % of a 5x5 map, 21 % of a 13x13); density 100 is
// fully dense.
void col2im_baseline(const ConvGeom& g, const float* columns, float* image) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* plane = image + c * g.height * g.width;
    std::int64_t row = c * g.kernel_h * g.kernel_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row)
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x)
            plane[(y + kh) * g.width + x + kw] += columns[row * oh * ow +
                                                          y * ow + x];
  }
}

void BM_ConvInputGrad(benchmark::State& state) {
  const std::int64_t img = state.range(0);
  const bool dense = state.range(1) == 100;
  const bool gather = state.range(2) == 0;
  constexpr std::int64_t kBatch = 32;
  constexpr std::int64_t kChannels = 32;
  const ConvGeom g{kChannels, img, img, 3, 3, 0, 0, 1, 1};
  const std::int64_t oh = g.out_h();
  const std::int64_t kk = g.col_rows();
  const std::int64_t sp = g.col_cols();
  Rng rng(13);
  const auto w = random_vec(kChannels * kk, rng);
  std::vector<float> wr(w.size());
  conv_weight_tap_major(kChannels, kChannels, 9, w.data(), wr.data());
  std::vector<float> go(static_cast<std::size_t>(kBatch * kChannels * sp));
  for (std::int64_t plane = 0; plane < kBatch * kChannels; ++plane) {
    float* p = go.data() + plane * sp;
    if (dense) {
      for (std::int64_t s = 0; s < sp; ++s)
        p[s] = static_cast<float>(rng.uniform(-1.0, 1.0));
      continue;
    }
    for (std::int64_t y = 0; y + 2 <= oh; y += 2)
      for (std::int64_t x = 0; x + 2 <= oh; x += 2) {
        const auto tap = static_cast<std::int64_t>(rng.uniform_int(4));
        p[(y + tap / 2) * oh + x + tap % 2] =
            static_cast<float>(rng.uniform(-1.0, 1.0));
      }
  }
  const std::int64_t in_stride = kChannels * img * img;
  std::vector<float> dx(static_cast<std::size_t>(kBatch * in_stride));
  std::vector<float> scratch(static_cast<std::size_t>(kk * sp + kChannels));
  std::vector<std::int32_t> nz(kChannels);
  for (auto _ : state) {
    if (!gather) std::fill(dx.begin(), dx.end(), 0.0f);
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const float* goi = go.data() + i * kChannels * sp;
      float* dxi = dx.data() + i * in_stride;
      if (gather) {
        float* nz_go = scratch.data() + kk * sp;
        conv_grad_rows(sp, kk, kChannels, wr.data(), goi, nz.data(), nz_go,
                       scratch.data());
        conv_gather_dx(g, scratch.data(), dxi);
      } else {
        gemm_tn(kk, sp, kChannels, 1.0f, w.data(), goi, 0.0f,
                scratch.data());
        col2im_baseline(g, scratch.data(), dxi);
      }
    }
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ConvInputGrad)
    ->UseRealTime()
    ->ArgNames({"img", "density", "path"})
    ->ArgsProduct({{7, 15}, {17, 100}, {0, 1}});

// conv1's weight gradient for one batch-32 step at the csnn's 16x16 shape
// (3 -> 32 channels, 3x3, 14x14 outputs, dense output gradient), one
// thread.  Path 0: 32 per-sample gemm_nt(go, cols) calls into [OC, K], as
// Conv2d runs them.  Path 1: one long-K gemm_nt over the batch's output
// gradients and columns laid side by side, the layout copies included.
// Path 2: 32 per-sample gemm_nt(cols, go) calls into a [K, OC]
// transpose, so B is one full 32-wide panel, the transposes in and out
// included.  All three give the same bits.
void BM_ConvWeightGrad(benchmark::State& state) {
  const std::int64_t path = state.range(0);
  constexpr std::int64_t kBatch = 32;
  constexpr std::int64_t kOut = 32;
  const ConvGeom g{3, 16, 16, 3, 3, 0, 0, 1, 1};
  const std::int64_t kk = g.col_rows();
  const std::int64_t sp = g.col_cols();
  Rng rng(14);
  const auto go = random_vec(kBatch * kOut * sp, rng);
  const auto cols = random_vec(kBatch * kk * sp, rng);
  std::vector<float> go_wide(go.size());
  std::vector<float> cols_wide(cols.size());
  std::vector<float> gw(static_cast<std::size_t>(kOut * kk));
  std::vector<float> gt(gw.size());
  for (auto _ : state) {
    if (path == 1) {
      // [OC, N*spatial] and [K, N*spatial], sample-major along k.
      for (std::int64_t i = 0; i < kBatch; ++i) {
        for (std::int64_t oc = 0; oc < kOut; ++oc)
          std::copy_n(go.data() + (i * kOut + oc) * sp, sp,
                      go_wide.data() + (oc * kBatch + i) * sp);
        for (std::int64_t p = 0; p < kk; ++p)
          std::copy_n(cols.data() + (i * kk + p) * sp, sp,
                      cols_wide.data() + (p * kBatch + i) * sp);
      }
      gemm_nt(kOut, kk, kBatch * sp, 1.0f, go_wide.data(), cols_wide.data(),
              1.0f, gw.data());
    } else if (path == 2) {
      for (std::int64_t oc = 0; oc < kOut; ++oc)
        for (std::int64_t p = 0; p < kk; ++p)
          gt[static_cast<std::size_t>(p * kOut + oc)] =
              gw[static_cast<std::size_t>(oc * kk + p)];
      for (std::int64_t i = 0; i < kBatch; ++i)
        gemm_nt(kk, kOut, sp, 1.0f, cols.data() + i * kk * sp,
                go.data() + i * kOut * sp, 1.0f, gt.data());
      for (std::int64_t oc = 0; oc < kOut; ++oc)
        for (std::int64_t p = 0; p < kk; ++p)
          gw[static_cast<std::size_t>(oc * kk + p)] =
              gt[static_cast<std::size_t>(p * kOut + oc)];
    } else {
      for (std::int64_t i = 0; i < kBatch; ++i)
        gemm_nt(kOut, kk, sp, 1.0f, go.data() + i * kOut * sp,
                cols.data() + i * kk * sp, 1.0f, gw.data());
    }
    benchmark::DoNotOptimize(gw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ConvWeightGrad)->UseRealTime()->ArgName("path")->DenseRange(0, 2);

void BM_LifStep(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ThreadsArg threads(state);
  snn::Lif lif(snn::LifConfig{});
  Rng rng(6);
  Tensor x = Tensor::uniform(Shape{1, n}, rng, 0.0f, 2.0f);
  lif.begin_window(1, false);
  for (auto _ : state) {
    const Tensor& s = lif.forward_step(x);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LifStep)
    ->UseRealTime()
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{1024, 65536}, kThreadCounts});

void BM_LifWindowTrain(benchmark::State& state) {
  // One training window of the csnn's first LIF at the train_epoch shape
  // (batch 32, 32 channels, 14x14 after conv1): 8 forward steps caching
  // u_pre, then the 8-step BPTT sweep.
  const Shape shape{32, 32, 14, 14};
  constexpr int kSteps = 8;
  snn::LifConfig cfg;
  cfg.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
  snn::Lif lif(cfg);
  Rng rng(11);
  std::vector<Tensor> inputs, grads;
  for (int t = 0; t < kSteps; ++t) {
    inputs.push_back(Tensor::uniform(shape, rng, -0.5f, 1.5f));
    grads.push_back(Tensor::uniform(shape, rng, -1.0f, 1.0f));
  }
  for (auto _ : state) {
    lif.begin_window(shape[0], true);
    for (const Tensor& x : inputs) {
      const Tensor& s = lif.forward_step(x);
      benchmark::DoNotOptimize(s.data());
    }
    lif.begin_backward();
    for (int t = kSteps - 1; t >= 0; --t) {
      const Tensor& g = lif.backward_step(grads[static_cast<std::size_t>(t)]);
      benchmark::DoNotOptimize(g.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kSteps * 2 * shape.numel());
}
BENCHMARK(BM_LifWindowTrain)->UseRealTime();

void BM_ConvTrainStep(benchmark::State& state) {
  // One training step of the csnn's conv2 at the train_epoch shape (batch
  // 32, 32->32 channels, 7x7 pooled spikes at density 0.11, the trained
  // net's): forward, then weight, bias and input gradients.
  constexpr std::int64_t kBatch = 32;
  Rng rng(12);
  snn::Conv2d conv(snn::Conv2dConfig{32, 32, 3}, rng);
  Tensor x(Shape{kBatch, 32, 7, 7});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = rng.uniform() < 0.11 ? 1.0f : 0.0f;
  const Tensor g = Tensor::uniform(Shape{kBatch, 32, 5, 5}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    conv.begin_window(kBatch, true);
    benchmark::DoNotOptimize(conv.forward_step(x).data());
    benchmark::DoNotOptimize(conv.backward_step(g).data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ConvTrainStep)->UseRealTime();

void BM_TrainStepCsnn(benchmark::State& state) {
  // One training step of perfbench's train_epoch, one thread, as
  // Trainer::train_epoch runs it: the next shuffled SynthSvhn batch
  // (16x16, normalized, batch 32), direct coding over 8 steps, the csnn
  // with the fast-sigmoid(0.25) surrogate forward with training caches,
  // the rate loss, BPTT and an Adam step.  minflt/iter is the minor page
  // faults per step after one warm-up step (getrusage).  The loader,
  // encoder and optimizer are in the loop because their allocations,
  // interleaved with the network's, are what kept glibc trimming and
  // re-growing the heap when the layers allocated per step; forward and
  // backward alone settle without faults.
  constexpr std::int64_t kBatch = 32;
  constexpr std::int64_t kSteps = 8;
  const auto splits = data::make_synth_svhn_splits(256, kBatch, 16, 1);
  auto raw = std::make_shared<data::InMemoryDataset>(
      data::InMemoryDataset::from(splits.train));
  const auto means = data::channel_means(*raw);
  auto train = std::make_shared<data::NormalizedDataset>(
      raw, means, std::vector<float>(means.size(), 0.25f));
  data::DataLoader loader(train, kBatch, /*shuffle=*/true, 1);
  snn::CsnnConfig cfg;
  cfg.image_size = 16;
  cfg.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
  auto net = snn::make_svhn_csnn(cfg);
  const auto encoder = data::make_encoder("direct", 1);
  const snn::RateCrossEntropyLoss loss(static_cast<double>(kSteps));
  train::Adam adam(net->params(), 5e-3);
  data::Batch batch;
  std::int64_t epoch = 0;
  std::uint64_t stream = 0;
  loader.start_epoch(epoch);
  auto step = [&] {
    if (!loader.next(batch)) {
      loader.start_epoch(++epoch);
      loader.next(batch);
    }
    const auto steps = encoder->encode(batch.images, kSteps, stream++);
    net->zero_grad();
    const auto out = net->forward(steps, {.training = true});
    net->backward(loss.compute(out.spike_counts, batch.labels).grad_counts);
    adam.step();
    benchmark::DoNotOptimize(out.spike_counts.data());
  };
  step();
  const long faults = minor_faults();
  for (auto _ : state) step();
  state.counters["minflt/iter"] =
      benchmark::Counter(static_cast<double>(minor_faults() - faults),
                         benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TrainStepCsnn)->UseRealTime();

void BM_RateEncode(benchmark::State& state) {
  data::RateEncoder enc(7);
  Rng rng(7);
  Tensor batch = Tensor::uniform(Shape{32, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    auto steps = enc.encode(batch, 8, stream++);
    benchmark::DoNotOptimize(steps.data());
  }
}
BENCHMARK(BM_RateEncode);

void BM_CsnnTimestep(benchmark::State& state) {
  // One full forward window step of the paper topology at 16x16.
  snn::CsnnConfig cfg;
  cfg.image_size = 16;
  auto net = snn::make_svhn_csnn(cfg);
  Rng rng(8);
  const std::vector<Tensor> window{
      Tensor::uniform(Shape{32, 3, 16, 16}, rng, -1.0f, 1.0f)};
  for (auto _ : state) {
    auto out = net->forward(window);
    benchmark::DoNotOptimize(out.spike_counts.data());
  }
}
BENCHMARK(BM_CsnnTimestep);

void BM_SessionStepCsnn(benchmark::State& state) {
  // InferenceSession::step on ONE stream of the served csnn (3x32x32, beta
  // 0.5, theta 1.5) fed rate-coded frames at density 0.15: the per-sample
  // block cost (kernels and epilogues) with the stream's membranes in
  // cache, free of the batch-wide membrane traffic of a 32-stream window.
  snn::CsnnConfig cfg;
  cfg.lif.beta = 0.5f;
  cfg.lif.threshold = 1.5f;
  auto net = snn::make_svhn_csnn(cfg);
  const Shape per_sample{cfg.in_channels, cfg.image_size, cfg.image_size};
  const auto model = infer::CompiledModel::compile(*net, per_sample);
  infer::InferOptions options;
  options.max_batch = 1;
  infer::InferenceSession session(model, options);
  auto stream = session.make_stream();
  Rng rng(10);
  std::vector<Tensor> frames;
  for (int f = 0; f < 8; ++f) {
    Tensor x = Tensor::full(per_sample, 0.0f);
    for (std::int64_t i = 0; i < x.numel(); ++i)
      if (rng.uniform() < 0.15) x.data()[i] = 1.0f;
    frames.push_back(std::move(x));
  }
  std::size_t f = 0;
  for (auto _ : state) {
    Tensor out = session.step(stream, frames[f]);
    benchmark::DoNotOptimize(out.data());
    f = (f + 1) % frames.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionStepCsnn)->UseRealTime();

std::vector<hw::LayerWorkload> bench_workloads() {
  std::vector<hw::LayerWorkload> ws(4);
  const char* names[] = {"conv1", "conv2", "fc1", "fc2"};
  const std::int64_t ins[] = {3072, 7200, 1152, 256};
  const std::int64_t fan[] = {288, 288, 256, 10};
  const std::int64_t neu[] = {28800, 5408, 256, 10};
  for (int i = 0; i < 4; ++i) {
    ws[static_cast<std::size_t>(i)].name = names[i];
    ws[static_cast<std::size_t>(i)].input_size = ins[i];
    ws[static_cast<std::size_t>(i)].fanout = fan[i];
    ws[static_cast<std::size_t>(i)].neurons = neu[i];
    ws[static_cast<std::size_t>(i)].num_weights = 1000;
    ws[static_cast<std::size_t>(i)].avg_input_spikes =
        0.15 * static_cast<double>(ins[i]);
  }
  return ws;
}

void BM_Allocate(benchmark::State& state) {
  const auto ws = bench_workloads();
  const auto dev = hw::kintex_ultrascale_plus_ku5p();
  for (auto _ : state) {
    auto a = hw::allocate(ws, dev, hw::AllocationPolicy::kBalanced);
    benchmark::DoNotOptimize(a.total_pes);
  }
}
BENCHMARK(BM_Allocate);

void BM_AnalyticModel(benchmark::State& state) {
  const auto ws = bench_workloads();
  const auto dev = hw::kintex_ultrascale_plus_ku5p();
  const auto alloc = hw::allocate(ws, dev, hw::AllocationPolicy::kBalanced);
  for (auto _ : state) {
    auto r = hw::analyze(ws, alloc, dev, 25, hw::ComputeMode::kEventDriven);
    benchmark::DoNotOptimize(r.fps_per_watt);
  }
}
BENCHMARK(BM_AnalyticModel);

void BM_EventSimInference(benchmark::State& state) {
  const auto ws = bench_workloads();
  const auto dev = hw::kintex_ultrascale_plus_ku5p();
  const auto alloc = hw::allocate(ws, dev, hw::AllocationPolicy::kBalanced);
  const auto cfg = hw::EventSimConfig::from(ws, alloc, dev);
  Rng rng(9);
  const auto trace = hw::random_trace(ws, 25, rng);
  for (auto _ : state) {
    auto r = hw::simulate_inference(cfg, trace);
    benchmark::DoNotOptimize(r.total_cycles);
  }
}
BENCHMARK(BM_EventSimInference);

}  // namespace
