// LIF neuron dynamics (paper Eq. 1-2) and BPTT gradient checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "snn/lif.h"
#include "tensor/gradcheck.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {
namespace {

LifConfig config(float beta, float theta,
                 Surrogate sg = Surrogate::fast_sigmoid(25.0f)) {
  LifConfig c;
  c.beta = beta;
  c.threshold = theta;
  c.surrogate = sg;
  return c;
}

Tensor scalar_input(float v) { return Tensor(Shape{1, 1}, {v}); }

TEST(Lif, SubThresholdIntegrationDecays) {
  // With theta = 10, constant input 1 never fires: u_t = sum beta^i.
  Lif lif(config(0.5f, 10.0f));
  lif.begin_window(1, false);
  float expected = 0.0f;
  for (int t = 0; t < 5; ++t) {
    Tensor s = lif.forward_step(scalar_input(1.0f));
    expected = 0.5f * expected + 1.0f;
    EXPECT_EQ(s[0], 0.0f) << "unexpected spike at t=" << t;
  }
  EXPECT_EQ(lif.window_spike_count(), 0);
}

TEST(Lif, FiresWhenAboveThreshold) {
  Lif lif(config(0.0f, 0.5f));
  lif.begin_window(1, false);
  Tensor s = lif.forward_step(scalar_input(1.0f));
  EXPECT_EQ(s[0], 1.0f);
  EXPECT_EQ(lif.window_spike_count(), 1);
}

TEST(Lif, StrictThresholdComparison) {
  // Eq. 2: spike iff u > theta (strict).
  Lif lif(config(0.0f, 1.0f));
  lif.begin_window(1, false);
  EXPECT_EQ(lif.forward_step(scalar_input(1.0f))[0], 0.0f);
  lif.begin_window(1, false);
  EXPECT_EQ(lif.forward_step(scalar_input(1.0f + 1e-4f))[0], 1.0f);
}

TEST(Lif, ResetBySubtractionKeepsResidual) {
  // u = 1.7, theta = 1 -> spike; residual u_post = 0.7 carried via beta = 1.
  Lif lif(config(1.0f, 1.0f));
  lif.begin_window(1, false);
  Tensor s1 = lif.forward_step(scalar_input(1.7f));
  EXPECT_EQ(s1[0], 1.0f);
  // Next step zero input: u = 0.7 -> no spike; then +0.4 -> 1.1 -> spike.
  Tensor s2 = lif.forward_step(scalar_input(0.0f));
  EXPECT_EQ(s2[0], 0.0f);
  Tensor s3 = lif.forward_step(scalar_input(0.4f));
  EXPECT_EQ(s3[0], 1.0f);
}

TEST(Lif, HigherBetaFiresMoreWithSameInput) {
  // Paper: higher beta retains more state -> more likely to fire.
  auto spikes_with_beta = [](float beta) {
    Lif lif(config(beta, 1.0f));
    lif.begin_window(1, false);
    std::int64_t count = 0;
    for (int t = 0; t < 50; ++t)
      count += static_cast<std::int64_t>(
          lif.forward_step(scalar_input(0.3f))[0]);
    return count;
  };
  EXPECT_GT(spikes_with_beta(0.9f), spikes_with_beta(0.3f));
}

TEST(Lif, LowerThresholdFiresMore) {
  // Paper: lower theta reduces the potential required to fire.
  auto spikes_with_theta = [](float theta) {
    Lif lif(config(0.5f, theta));
    lif.begin_window(1, false);
    std::int64_t count = 0;
    for (int t = 0; t < 50; ++t)
      count += static_cast<std::int64_t>(
          lif.forward_step(scalar_input(0.6f))[0]);
    return count;
  };
  EXPECT_GT(spikes_with_theta(0.8f), spikes_with_theta(2.0f));
}

TEST(Lif, PeriodicFiringRateMatchesTheory) {
  // beta = 1 (no leak), constant input c < theta: fires every
  // ceil(theta/c) steps asymptotically (reset by subtraction conserves
  // charge).  Rate over a long window -> c / theta.
  Lif lif(config(1.0f, 1.0f));
  lif.begin_window(1, false);
  const int T = 1000;
  const float c = 0.24f;
  std::int64_t count = 0;
  for (int t = 0; t < T; ++t)
    count += static_cast<std::int64_t>(lif.forward_step(scalar_input(c))[0]);
  EXPECT_NEAR(static_cast<double>(count) / T, 0.24, 0.01);
}

TEST(Lif, WindowStateResets) {
  Lif lif(config(1.0f, 1.0f));
  lif.begin_window(1, false);
  lif.forward_step(scalar_input(0.9f));
  // New window: membrane must start from zero again.
  lif.begin_window(1, false);
  Tensor s = lif.forward_step(scalar_input(0.9f));
  EXPECT_EQ(s[0], 0.0f);
  EXPECT_EQ(lif.window_spike_count(), 0);
}

TEST(Lif, InputShapeChangeMidWindowThrows) {
  Lif lif(config(0.5f, 1.0f));
  lif.begin_window(1, false);
  lif.forward_step(Tensor(Shape{1, 2}));
  EXPECT_THROW(lif.forward_step(Tensor(Shape{1, 3})), InvalidArgument);
}

TEST(Lif, ConfigValidation) {
  EXPECT_THROW(Lif(config(-0.1f, 1.0f)), InvalidArgument);
  EXPECT_THROW(Lif(config(1.1f, 1.0f)), InvalidArgument);
  EXPECT_THROW(Lif(config(0.5f, 0.0f)), InvalidArgument);
}

// BPTT gradient check: the LIF backward must equal the finite-difference
// gradient of the *surrogate-relaxed* dynamics.  We verify against the
// analytically-derived recurrence instead: run backward on a 3-step window
// and compare with a hand-rolled reference implementation of
//   dL/du_pre[t] = c[t] + (g_s[t] - theta c[t]) sg'(u_pre[t]-theta),
//   c[t-1] = beta dL/du_pre[t].
TEST(Lif, BackwardMatchesHandRolledRecurrence) {
  const float beta = 0.6f;
  const float theta = 1.0f;
  const Surrogate sg = Surrogate::fast_sigmoid(5.0f);
  Lif lif(config(beta, theta, sg));

  const std::vector<float> inputs{0.8f, 0.9f, 0.4f};
  const std::vector<float> gout{0.3f, -0.2f, 0.5f};

  lif.begin_window(1, true);
  std::vector<float> u_pre(3);
  float u_post = 0.0f;
  for (int t = 0; t < 3; ++t) {
    lif.forward_step(scalar_input(inputs[static_cast<std::size_t>(t)]));
    const float up =
        beta * u_post + inputs[static_cast<std::size_t>(t)];
    u_pre[static_cast<std::size_t>(t)] = up;
    u_post = up - (up > theta ? theta : 0.0f);
  }

  lif.begin_backward();
  std::vector<float> got(3);
  for (int t = 2; t >= 0; --t) {
    Tensor g = lif.backward_step(
        scalar_input(gout[static_cast<std::size_t>(t)]));
    got[static_cast<std::size_t>(t)] = g[0];
  }

  float carry = 0.0f;
  std::vector<float> expect(3);
  for (int t = 2; t >= 0; --t) {
    const float spike_path = gout[static_cast<std::size_t>(t)] -
                             theta * carry;
    const float gi =
        carry + spike_path * sg.grad(u_pre[static_cast<std::size_t>(t)] -
                                     theta);
    expect[static_cast<std::size_t>(t)] = gi;
    carry = beta * gi;
  }
  for (int t = 0; t < 3; ++t)
    EXPECT_NEAR(got[static_cast<std::size_t>(t)],
                expect[static_cast<std::size_t>(t)], 1e-6f)
        << "t=" << t;
}

TEST(Lif, DetachResetDropsResetPath) {
  LifConfig cfg = config(0.6f, 1.0f, Surrogate::fast_sigmoid(5.0f));
  cfg.detach_reset = true;
  Lif lif(cfg);
  lif.begin_window(1, true);
  lif.forward_step(scalar_input(1.5f));  // fires
  lif.forward_step(scalar_input(0.5f));
  lif.begin_backward();
  // Step 1 backward: carry starts 0, gi1 = g * sg'(u1 - theta).
  Tensor g1 = lif.backward_step(scalar_input(1.0f));
  // Step 0 backward with detach: gi0 = c + g * sg'(...), where the
  // -theta*c term is absent.  Compare against manual computation.
  Tensor g0 = lif.backward_step(scalar_input(0.0f));
  const Surrogate sg = Surrogate::fast_sigmoid(5.0f);
  const float u1 = 0.6f * 0.5f + 0.5f;  // u_post0 = 1.5 - 1.0 = 0.5
  const float gi1 = 1.0f * sg.grad(u1 - 1.0f);
  const float carry = 0.6f * gi1;
  const float gi0 = carry + (0.0f /*g*/) * sg.grad(1.5f - 1.0f);
  EXPECT_NEAR(g1[0], gi1, 1e-6f);
  EXPECT_NEAR(g0[0], gi0, 1e-6f);
}

TEST(Lif, BackwardWithoutForwardThrows) {
  Lif lif(config(0.5f, 1.0f));
  lif.begin_window(1, true);
  lif.begin_backward();
  EXPECT_THROW(lif.backward_step(scalar_input(1.0f)), InvalidArgument);
}

TEST(Lif, InferenceWindowCachesNothing) {
  Lif lif(config(0.5f, 1.0f));
  lif.begin_window(1, false);
  lif.forward_step(scalar_input(2.0f));
  lif.begin_backward();
  EXPECT_THROW(lif.backward_step(scalar_input(1.0f)), InvalidArgument);
}

TEST(Lif, SpikeAndElementCountsTrack) {
  Lif lif(config(0.0f, 0.5f));
  lif.begin_window(4, false);
  Tensor batch(Shape{4, 2});
  batch.fill(1.0f);  // all fire
  lif.forward_step(batch);
  batch.fill(0.0f);  // none fire
  lif.forward_step(batch);
  EXPECT_EQ(lif.window_spike_count(), 8);
  EXPECT_EQ(lif.window_element_count(), 16);
}

// --- Fused kernels against the unfused per-element formulas ---------------
//
// A test-local copy of the LIF as it was before the forward and backward
// loops were fused: an out-of-line surrogate call per element, and separate
// passes for the decay, the spike/reset and the carry's beta scaling.  Each
// float expression is written as one statement, so FMA contraction fuses
// exactly what it fused in that code.

[[gnu::noinline]] float unfused_grad(Surrogate::Kind kind, float scale,
                                     float v) {
  constexpr float kPi = 3.14159265358979323846f;
  switch (kind) {
    case Surrogate::Kind::kArctan: {
      const float z = kPi * v * scale * 0.5f;
      return (scale * 0.5f) / (1.0f + z * z);
    }
    case Surrogate::Kind::kFastSigmoid: {
      const float d = 1.0f + scale * std::fabs(v);
      return 1.0f / (d * d);
    }
    case Surrogate::Kind::kSigmoid: {
      const float s = 1.0f / (1.0f + std::exp(-scale * v));
      return scale * s * (1.0f - s);
    }
    case Surrogate::Kind::kTriangular: {
      const float z = 1.0f - scale * std::fabs(v);
      return z > 0.0f ? scale * z : 0.0f;
    }
    case Surrogate::Kind::kBoxcar:
      return std::fabs(v) < 1.0f / scale ? 0.5f * scale : 0.0f;
    case Surrogate::Kind::kStraightThrough:
      return 1.0f;
  }
  return 0.0f;
}

struct UnfusedWindow {
  std::vector<std::vector<float>> spikes;  // per step
  std::vector<std::vector<float>> grads;   // per step, in backward order
  std::int64_t fired = 0;
};

UnfusedWindow unfused_window(const LifConfig& cfg,
                             const std::vector<std::vector<float>>& in,
                             const std::vector<std::vector<float>>& go) {
  const float beta = cfg.beta;
  const float theta = cfg.threshold;
  const std::size_t n = in.front().size();
  UnfusedWindow w;
  std::vector<std::vector<float>> pre_cache;
  std::vector<float> membrane;
  for (const auto& x : in) {
    std::vector<float> u_pre = x;
    if (!membrane.empty())
      for (std::size_t i = 0; i < n; ++i) u_pre[i] += beta * membrane[i];
    std::vector<float> spikes(n);
    std::vector<float> u_post = u_pre;
    for (std::size_t i = 0; i < n; ++i) {
      const bool fire = u_pre[i] > theta;
      spikes[i] = fire ? 1.0f : 0.0f;
      if (fire) {
        u_post[i] -= theta;
        ++w.fired;
      }
    }
    membrane = u_post;
    pre_cache.push_back(u_pre);
    w.spikes.push_back(spikes);
  }
  std::vector<float> carry;
  for (std::size_t t = in.size(); t-- > 0;) {
    const std::vector<float>& up = pre_cache[t];
    std::vector<float> gi(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float c = carry.empty() ? 0.0f : carry[i];
      float spike_path = go[t][i];
      if (!cfg.detach_reset) spike_path = go[t][i] - theta * c;
      const float sg =
          unfused_grad(cfg.surrogate.kind(), cfg.surrogate.scale(),
                       up[i] - theta);
      gi[i] = c + spike_path * sg;
    }
    carry = gi;
    for (std::size_t i = 0; i < n; ++i) carry[i] *= beta;
    w.grads.push_back(gi);
  }
  return w;
}

bool same_bits(const Tensor& t, const std::vector<float>& v) {
  return t.numel() == static_cast<std::int64_t>(v.size()) &&
         std::memcmp(t.data(), v.data(), v.size() * sizeof(float)) == 0;
}

TEST(Lif, FusedKernelsMatchUnfusedFormulasBitwise) {
  // An odd element count (no vector width divides it), 4 steps, inputs
  // that straddle theta so every surrogate sees both sides.
  constexpr std::int64_t kElems = 2467;
  constexpr std::size_t kSteps = 4;
  const Surrogate kinds[] = {
      Surrogate::arctan(2.0f),     Surrogate::fast_sigmoid(0.25f),
      Surrogate::sigmoid(1.5f),    Surrogate::triangular(1.0f),
      Surrogate::boxcar(2.0f),     Surrogate::straight_through()};
  Rng rng(41);
  std::vector<std::vector<float>> in, go;
  for (std::size_t t = 0; t < kSteps; ++t) {
    const Tensor x = Tensor::uniform(Shape{kElems}, rng, -1.0f, 2.0f);
    const Tensor g = Tensor::uniform(Shape{kElems}, rng, -1.0f, 1.0f);
    in.emplace_back(x.data(), x.data() + kElems);
    go.emplace_back(g.data(), g.data() + kElems);
  }
  for (const Surrogate& sg : kinds) {
    for (bool detach : {false, true}) {
      LifConfig cfg = config(0.6f, 0.9f, sg);
      cfg.detach_reset = detach;
      const UnfusedWindow want = unfused_window(cfg, in, go);
      ASSERT_GT(want.fired, 0);

      Lif lif(cfg);
      lif.begin_window(1, true);
      for (std::size_t t = 0; t < kSteps; ++t) {
        const Tensor s =
            lif.forward_step(Tensor(Shape{1, kElems}, in[t]));
        EXPECT_TRUE(same_bits(s, want.spikes[t]))
            << sg.name() << " detach=" << detach << " step " << t;
      }
      EXPECT_EQ(lif.window_spike_count(), want.fired) << sg.name();
      EXPECT_EQ(lif.window_element_count(),
                static_cast<std::int64_t>(kSteps) * kElems);
      lif.begin_backward();
      for (std::size_t k = 0; k < kSteps; ++k) {
        const std::size_t t = kSteps - 1 - k;
        const Tensor g = lif.backward_step(Tensor(Shape{1, kElems}, go[t]));
        EXPECT_TRUE(same_bits(g, want.grads[k]))
            << sg.name() << " detach=" << detach << " step " << t;
      }
    }
  }
}

}  // namespace
}  // namespace spiketune::snn
