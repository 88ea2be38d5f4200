// SpikingNetwork: window semantics, spike-count readout, stats recording,
// and BPTT plumbing.  (Full-network finite-difference checks are not
// meaningful through the exact Heaviside forward — surrogate gradients are
// intentionally different from the true a.e.-zero derivative — so network
// level tests assert structure, determinism, and learning-signal liveness;
// per-layer backward math is covered by gradchecks in test_layers/test_lif.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "snn/conv2d.h"
#include "snn/linear.h"
#include "snn/model_zoo.h"
#include "snn/pool.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {
namespace {

std::vector<Tensor> constant_window(std::int64_t steps, Shape shape,
                                    float value) {
  return std::vector<Tensor>(static_cast<std::size_t>(steps),
                             Tensor::full(std::move(shape), value));
}

TEST(Network, MlpForwardShapes) {
  MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = 6;
  cfg.num_classes = 4;
  auto net = make_snn_mlp(cfg);
  EXPECT_EQ(net->num_layers(), 4u);
  EXPECT_EQ(net->output_shape(Shape{8}), Shape({4}));

  auto out = net->forward(constant_window(5, Shape{3, 8}, 0.5f));
  EXPECT_EQ(out.spike_counts.shape(), Shape({3, 4}));
  EXPECT_EQ(out.timesteps, 5);
}

TEST(Network, SpikeCountsBounded) {
  MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = 6;
  cfg.num_classes = 4;
  auto net = make_snn_mlp(cfg);
  const std::int64_t T = 7;
  auto out = net->forward(constant_window(T, Shape{2, 8}, 1.0f));
  for (std::int64_t i = 0; i < out.spike_counts.numel(); ++i) {
    EXPECT_GE(out.spike_counts[i], 0.0f);
    EXPECT_LE(out.spike_counts[i], static_cast<float>(T));
  }
}

TEST(Network, DeterministicForward) {
  MlpConfig cfg;
  auto a = make_snn_mlp(cfg);
  auto b = make_snn_mlp(cfg);
  auto window = constant_window(4, Shape{2, 64}, 0.8f);
  auto oa = a->forward(window);
  auto ob = b->forward(window);
  for (std::int64_t i = 0; i < oa.spike_counts.numel(); ++i)
    EXPECT_EQ(oa.spike_counts[i], ob.spike_counts[i]);
}

TEST(Network, WeightSeedChangesModel) {
  MlpConfig a_cfg;
  MlpConfig b_cfg;
  b_cfg.weight_seed = a_cfg.weight_seed + 1;
  auto a = make_snn_mlp(a_cfg);
  auto b = make_snn_mlp(b_cfg);
  auto pa = a->params();
  auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t k = 0; k < pa[i]->numel(); ++k)
      if (pa[i]->value[k] != pb[i]->value[k]) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Network, StatsRecordInputAndOutputDensities) {
  MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  cfg.num_classes = 4;
  auto net = make_snn_mlp(cfg);
  auto out = net->forward(constant_window(6, Shape{3, 16}, 1.0f),
                          {.record_stats = true});
  const auto& layers = out.stats.layers();
  ASSERT_EQ(layers.size(), 4u);
  // First linear sees the raw (all-ones) input: density 1.
  EXPECT_DOUBLE_EQ(layers[0].input_density(), 1.0);
  // LIF layers marked spiking; linear not.
  EXPECT_FALSE(layers[0].spiking);
  EXPECT_TRUE(layers[1].spiking);
  // Element bookkeeping: 6 steps x 3 samples x 16 features.
  EXPECT_EQ(layers[0].input_elements, 6 * 3 * 16);
  EXPECT_EQ(layers[1].input_elements, 6 * 3 * 8);
}

TEST(Network, StepTraceMatchesAggregate) {
  MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = make_snn_mlp(cfg);
  auto out = net->forward(constant_window(5, Shape{2, 16}, 0.9f),
                          {.record_stats = true, .record_step_nonzeros = true});
  ASSERT_EQ(out.step_input_nonzeros.size(), 5u);
  for (std::size_t l = 0; l < net->num_layers(); ++l) {
    std::int64_t total = 0;
    for (const auto& step : out.step_input_nonzeros) total += step[l];
    EXPECT_EQ(total, out.stats.layers()[l].input_nonzeros) << "layer " << l;
  }
}

TEST(Network, StepTraceIsOptIn) {
  // record_stats alone must not grow the TxL per-step tally; only the
  // hardware simulator's explicit opt-in pays for it.
  MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 8;
  auto net = make_snn_mlp(cfg);
  auto window = constant_window(4, Shape{2, 16}, 0.9f);
  auto stats_only = net->forward(window, {.record_stats = true});
  EXPECT_TRUE(stats_only.step_input_nonzeros.empty());
  EXPECT_GT(stats_only.stats.layers()[0].input_nonzeros, 0);

  // The tally alone works too (no aggregate stats requested).
  auto trace_only = net->forward(window, {.record_step_nonzeros = true});
  ASSERT_EQ(trace_only.step_input_nonzeros.size(), 4u);
  EXPECT_EQ(trace_only.stats.layers()[0].input_nonzeros, 0);
  EXPECT_EQ(trace_only.step_input_nonzeros[0][0], 2 * 16);
}

TEST(Network, BackwardProducesFiniteNonzeroGrads) {
  MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = 12;
  cfg.num_classes = 4;
  cfg.lif.threshold = 0.8f;
  auto net = make_snn_mlp(cfg);
  Rng rng(88);
  std::vector<Tensor> window;
  for (int t = 0; t < 6; ++t)
    window.push_back(Tensor::uniform(Shape{4, 16}, rng, 0.0f, 1.0f));

  net->zero_grad();
  auto out = net->forward(window, {.training = true});
  Tensor g(out.spike_counts.shape());
  g.fill(1.0f);
  net->backward(g);

  double grad_l1 = 0.0;
  for (Param* p : net->params())
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      EXPECT_TRUE(std::isfinite(p->grad[i]));
      grad_l1 += std::fabs(p->grad[i]);
    }
  EXPECT_GT(grad_l1, 0.0);
}

// The network asks its first layer for parameter gradients only.  Replaying
// the same window through every layer's full backward_step must give the
// same gradients, bit for bit.
void expect_first_layer_skip_keeps_grads(
    const std::function<std::unique_ptr<SpikingNetwork>()>& make,
    const Shape& step_shape) {
  auto net = make();
  auto ref = make();
  Rng rng(91);
  std::vector<Tensor> window;
  for (int t = 0; t < 4; ++t)
    window.push_back(Tensor::uniform(step_shape, rng, 0.0f, 1.0f));

  net->zero_grad();
  ref->zero_grad();
  const auto out = net->forward(window, {.training = true});
  ref->forward(window, {.training = true});
  const Tensor g = Tensor::uniform(out.spike_counts.shape(), rng, -1.0f, 1.0f);
  net->backward(g);
  for (std::size_t li = 0; li < ref->num_layers(); ++li)
    ref->layer(li).begin_backward();
  for (std::size_t t = 0; t < window.size(); ++t) {
    Tensor gi = g;
    for (std::size_t li = ref->num_layers(); li-- > 0;)
      gi = ref->layer(li).backward_step(gi);
    EXPECT_EQ(gi.shape(), step_shape);
  }

  const auto got = net->params();
  const auto want = ref->params();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i]->grad.shape(), want[i]->grad.shape());
    for (std::int64_t e = 0; e < got[i]->numel(); ++e)
      EXPECT_EQ(got[i]->grad[e], want[i]->grad[e]) << got[i]->name << " " << e;
  }
  // The first layer's weight gradient is live, so the check is not vacuous.
  double first_l1 = 0.0;
  for (std::int64_t e = 0; e < got.front()->numel(); ++e)
    first_l1 += std::fabs(got.front()->grad[e]);
  EXPECT_GT(first_l1, 0.0);
}

TEST(Network, FirstLayerSkipsOnlyItsInputGradient) {
  MlpConfig mlp;
  mlp.in_features = 16;
  mlp.hidden = 12;
  mlp.num_classes = 4;
  mlp.lif.threshold = 0.8f;
  expect_first_layer_skip_keeps_grads([&] { return make_snn_mlp(mlp); },
                                      Shape{3, 16});
  CsnnConfig csnn;
  csnn.image_size = 12;
  csnn.conv1_filters = 4;
  csnn.conv2_filters = 4;
  csnn.fc_hidden = 16;
  csnn.init_gain = 3.0f;
  expect_first_layer_skip_keeps_grads([&] { return make_svhn_csnn(csnn); },
                                      Shape{2, 3, 12, 12});
}

TEST(Network, BackwardWithoutForwardThrows) {
  auto net = make_snn_mlp(MlpConfig{});
  Tensor g(Shape{1, 10});
  EXPECT_THROW(net->backward(g), InvalidArgument);
}

TEST(Network, ZeroGradClears) {
  auto net = make_snn_mlp(MlpConfig{});
  auto out = net->forward(constant_window(3, Shape{2, 64}, 1.0f),
                          {.training = true});
  Tensor g(out.spike_counts.shape());
  g.fill(1.0f);
  net->backward(g);
  net->zero_grad();
  for (Param* p : net->params())
    for (std::int64_t i = 0; i < p->numel(); ++i)
      EXPECT_EQ(p->grad[i], 0.0f);
}

TEST(Network, CsnnTopologyShapes) {
  CsnnConfig cfg;  // paper defaults: 32x32x3
  auto net = make_svhn_csnn(cfg);
  // conv(3->32) lif avgpool conv(32->32) lif maxpool flatten fc lif fc lif
  EXPECT_EQ(net->num_layers(), 11u);
  EXPECT_EQ(net->output_shape(Shape{3, 32, 32}), Shape({10}));
}

TEST(Network, CsnnSmallImageShapes) {
  CsnnConfig cfg;
  cfg.image_size = 16;
  auto net = make_svhn_csnn(cfg);
  EXPECT_EQ(net->output_shape(Shape{3, 16, 16}), Shape({10}));
  auto out = net->forward(constant_window(2, Shape{1, 3, 16, 16}, 0.7f));
  EXPECT_EQ(out.spike_counts.shape(), Shape({1, 10}));
}

TEST(Network, CsnnRejectsTinyImages) {
  CsnnConfig cfg;
  cfg.image_size = 8;
  EXPECT_THROW(make_svhn_csnn(cfg), InvalidArgument);
}

TEST(Network, CsnnParameterCount) {
  CsnnConfig cfg;  // 32x32
  auto net = make_svhn_csnn(cfg);
  // conv1: 32*3*9+32; conv2: 32*32*9+32; fc1: 1152*256+256; fc2: 256*10+10.
  const std::int64_t expected = (32 * 27 + 32) + (32 * 288 + 32) +
                                (1152 * 256 + 256) + (256 * 10 + 10);
  EXPECT_EQ(net->num_parameters(), expected);
}

TEST(Network, HigherThresholdFiresLess) {
  // The paper's Fig. 2 mechanism at network level.
  auto rate_for_theta = [](float theta) {
    MlpConfig cfg;
    cfg.lif.threshold = theta;
    auto net = make_snn_mlp(cfg);
    auto out = net->forward(
        std::vector<Tensor>(8, Tensor::full(Shape{4, 64}, 0.9f)),
        {.record_stats = true});
    return out.stats.mean_firing_rate();
  };
  EXPECT_GT(rate_for_theta(0.5f), rate_for_theta(2.0f));
}


// --- Step buffers reused across windows --------------------------------------
//
// A network reuses its layers' step buffers window after window, and the
// storage it parks between windows is what other networks' windows take.
// Neither may leak into a result: every window must give, bit for bit, what
// a freshly built network gives on it.

struct WindowSpec {
  std::int64_t batch;
  std::int64_t steps;
  bool training;
  bool direct;  // one image at every step (direct coding), else spikes
  std::uint64_t seed;
};

std::vector<Tensor> make_window(const WindowSpec& w, std::int64_t image) {
  Rng rng(w.seed);
  const Shape shape{w.batch, 3, image, image};
  if (w.direct)
    return std::vector<Tensor>(static_cast<std::size_t>(w.steps),
                               Tensor::uniform(shape, rng, -2.0f, 2.0f));
  std::vector<Tensor> steps;
  for (std::int64_t t = 0; t < w.steps; ++t) {
    Tensor x(shape);
    for (std::int64_t i = 0; i < x.numel(); ++i)
      x[i] = rng.uniform() < 0.3 ? 1.0f : 0.0f;
    steps.push_back(std::move(x));
  }
  return steps;
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Runs `w` on `net` and on a fresh network; returns the output spike total
// and the first layer's gradient L1, so callers can check liveness.
std::pair<double, double> expect_window_matches_fresh(
    SpikingNetwork& net,
    const std::function<std::unique_ptr<SpikingNetwork>()>& make,
    const WindowSpec& w, std::int64_t image) {
  SCOPED_TRACE(testing::Message() << "batch " << w.batch << ", "
                                  << (w.training ? "training" : "inference")
                                  << ", seed " << w.seed);
  auto fresh = make();
  const auto window = make_window(w, image);
  const ForwardOptions opt{.training = w.training, .record_stats = true};
  net.zero_grad();
  fresh->zero_grad();
  const auto got = net.forward(window, opt);
  const auto want = fresh->forward(window, opt);
  EXPECT_TRUE(bits_equal(got.spike_counts, want.spike_counts));
  EXPECT_EQ(got.stats.mean_firing_rate(), want.stats.mean_firing_rate());
  double spikes = 0.0;
  for (std::int64_t i = 0; i < got.spike_counts.numel(); ++i)
    spikes += got.spike_counts[i];
  if (!w.training) return {spikes, 0.0};

  Rng rng(w.seed + 100);
  const Tensor g =
      Tensor::uniform(got.spike_counts.shape(), rng, -1.0f, 1.0f);
  net.backward(g);
  fresh->backward(g);
  const auto gp = net.params();
  const auto wp = fresh->params();
  for (std::size_t i = 0; i < gp.size(); ++i)
    EXPECT_TRUE(bits_equal(gp[i]->grad, wp[i]->grad))
        << "param " << i << " " << gp[i]->name;
  double l1 = 0.0;
  for (std::int64_t e = 0; e < gp.front()->numel(); ++e)
    l1 += std::fabs(gp.front()->grad[e]);
  return {spikes, l1};
}

TEST(Network, ReusedWindowsMatchFreshNetworkBitwise) {
  CsnnConfig cfg;
  cfg.image_size = 16;
  cfg.conv1_filters = 8;
  cfg.conv2_filters = 8;
  cfg.fc_hidden = 32;
  cfg.init_gain = 3.0f;
  const auto make = [&] { return make_svhn_csnn(cfg); };
  // Batch 32, then 7 (every buffer shrinks), an inference window, then 32
  // again (every buffer regrows), with direct-coded and spike inputs.
  const WindowSpec windows[] = {{32, 4, true, true, 1},
                                {7, 3, true, false, 2},
                                {32, 4, false, false, 3},
                                {32, 4, true, true, 4},
                                {32, 3, true, false, 5}};
  for (int threads : {1, 3}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    set_num_threads(threads);
    auto net = make();
    double spikes = 0.0;
    for (const WindowSpec& w : windows) {
      const auto [s, l1] = expect_window_matches_fresh(*net, make, w, 16);
      spikes += s;
      if (w.training) {
        EXPECT_GT(l1, 0.0) << "seed " << w.seed;
      }
    }
    EXPECT_GT(spikes, 0.0);
  }
  set_num_threads(1);
}

}  // namespace
}  // namespace spiketune::snn
