// Conv2d / Linear / Pool / Flatten layers: forward semantics and numeric
// gradient checks of every backward path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "snn/conv2d.h"
#include "snn/linear.h"
#include "snn/pool.h"
#include "tensor/gemm.h"
#include "tensor/gradcheck.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"

namespace spiketune::snn {
namespace {

// Scalar objective used in gradient checks: weighted sum of the output so
// every output element receives a distinct gradient.
Tensor probe_weights(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(shape, rng, -1.0f, 1.0f);
}

double weighted_sum(const Tensor& out, const Tensor& probe) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < out.numel(); ++i)
    acc += static_cast<double>(out[i]) * probe[i];
  return acc;
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear fc(LinearConfig{2, 3}, rng);
  fc.weight().value = Tensor(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  fc.bias().value = Tensor(Shape{3}, {0.1f, 0.2f, 0.3f});
  fc.begin_window(1, false);
  Tensor out = fc.forward_step(Tensor(Shape{1, 2}, {1.0f, -1.0f}));
  EXPECT_NEAR(out[0], 1 - 2 + 0.1f, 1e-6f);
  EXPECT_NEAR(out[1], 3 - 4 + 0.2f, 1e-6f);
  EXPECT_NEAR(out[2], 5 - 6 + 0.3f, 1e-6f);
}

TEST(Linear, InputGradCheck) {
  Rng rng(2);
  Linear fc(LinearConfig{5, 4}, rng);
  Tensor x = Tensor::uniform(Shape{3, 5}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{3, 4}, 11);

  fc.begin_window(3, true);
  Tensor out = fc.forward_step(x);
  Tensor gin = fc.backward_step(probe);

  auto f = [&](const Tensor& xin) {
    Linear fc2(LinearConfig{5, 4}, rng);
    fc2.weight().value = fc.weight().value;
    fc2.bias().value = fc.bias().value;
    fc2.begin_window(3, false);
    return weighted_sum(fc2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Linear, WeightGradCheck) {
  Rng rng(3);
  Linear fc(LinearConfig{4, 3}, rng);
  Tensor x = Tensor::uniform(Shape{2, 4}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 3}, 13);

  fc.zero_grad();
  fc.begin_window(2, true);
  fc.forward_step(x);
  fc.backward_step(probe);

  const Tensor w0 = fc.weight().value;
  auto f = [&](const Tensor& w) {
    Linear fc2(LinearConfig{4, 3}, rng);
    fc2.weight().value = w;
    fc2.bias().value = fc.bias().value;
    fc2.begin_window(2, false);
    return weighted_sum(fc2.forward_step(x), probe);
  };
  const auto res = check_gradient(f, w0, fc.weight().grad, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Linear, BiasGradCheck) {
  Rng rng(4);
  Linear fc(LinearConfig{3, 2}, rng);
  Tensor x = Tensor::uniform(Shape{2, 3}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 2}, 17);

  fc.zero_grad();
  fc.begin_window(2, true);
  fc.forward_step(x);
  fc.backward_step(probe);

  const Tensor b0 = fc.bias().value;
  auto f = [&](const Tensor& b) {
    Linear fc2(LinearConfig{3, 2}, rng);
    fc2.weight().value = fc.weight().value;
    fc2.bias().value = b;
    fc2.begin_window(2, false);
    return weighted_sum(fc2.forward_step(x), probe);
  };
  const auto res = check_gradient(f, b0, fc.bias().grad, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Linear, GradAccumulatesAcrossSteps) {
  Rng rng(5);
  Linear fc(LinearConfig{2, 2}, rng);
  Tensor x = Tensor::full(Shape{1, 2}, 1.0f);
  Tensor g = Tensor::full(Shape{1, 2}, 1.0f);
  fc.zero_grad();
  fc.begin_window(1, true);
  fc.forward_step(x);
  fc.forward_step(x);
  fc.backward_step(g);
  const float after_one = fc.weight().grad[0];
  fc.backward_step(g);
  EXPECT_NEAR(fc.weight().grad[0], 2.0f * after_one, 1e-6f);
}

TEST(Conv2d, ForwardMatchesManualKernel) {
  Rng rng(6);
  Conv2d conv(Conv2dConfig{1, 1, 3, 0, /*bias=*/false}, rng);
  // Identity-ish kernel: only center tap = 2.
  conv.weight().value.fill(0.0f);
  conv.weight().value[4] = 2.0f;
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  conv.begin_window(1, false);
  Tensor out = conv.forward_step(x);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 0}), 2.0f * x.at({0, 0, 1, 1}));
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 2.0f * x.at({0, 0, 2, 2}));
}

TEST(Conv2d, InputGradCheck) {
  Rng rng(7);
  Conv2d conv(Conv2dConfig{2, 3, 3}, rng);
  Tensor x = Tensor::uniform(Shape{2, 2, 5, 5}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 3, 3, 3}, 23);

  conv.begin_window(2, true);
  conv.forward_step(x);
  Tensor gin = conv.backward_step(probe);

  auto f = [&](const Tensor& xin) {
    Conv2d c2(Conv2dConfig{2, 3, 3}, rng);
    c2.weight().value = conv.weight().value;
    c2.bias().value = conv.bias().value;
    c2.begin_window(2, false);
    return weighted_sum(c2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Conv2d, WeightGradCheck) {
  Rng rng(8);
  Conv2d conv(Conv2dConfig{2, 2, 3}, rng);
  Tensor x = Tensor::uniform(Shape{1, 2, 5, 5}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{1, 2, 3, 3}, 29);

  conv.zero_grad();
  conv.begin_window(1, true);
  conv.forward_step(x);
  conv.backward_step(probe);

  const Tensor w0 = conv.weight().value;
  auto f = [&](const Tensor& w) {
    Conv2d c2(Conv2dConfig{2, 2, 3}, rng);
    c2.weight().value = w;
    c2.bias().value = conv.bias().value;
    c2.begin_window(1, false);
    return weighted_sum(c2.forward_step(x), probe);
  };
  const auto res = check_gradient(f, w0, conv.weight().grad, 1e-2);
  EXPECT_TRUE(res.ok(2e-2, 1e-4)) << res.max_rel_error;
}

TEST(Conv2d, BiasGradIsSpatialSumOfProbe) {
  Rng rng(9);
  Conv2d conv(Conv2dConfig{1, 2, 3}, rng);
  Tensor x = Tensor::uniform(Shape{1, 1, 4, 4}, rng, -1.0f, 1.0f);
  Tensor probe(Shape{1, 2, 2, 2});
  probe.fill(1.0f);
  conv.zero_grad();
  conv.begin_window(1, true);
  conv.forward_step(x);
  conv.backward_step(probe);
  EXPECT_NEAR(conv.bias().grad[0], 4.0f, 1e-5f);
  EXPECT_NEAR(conv.bias().grad[1], 4.0f, 1e-5f);
}

TEST(Conv2d, PaddingGeometry) {
  Rng rng(10);
  Conv2d conv(Conv2dConfig{1, 1, 3, /*pad=*/1}, rng);
  EXPECT_EQ(conv.output_shape(Shape{1, 8, 8}), Shape({1, 8, 8}));
  Tensor x(Shape{1, 1, 8, 8});
  conv.begin_window(1, false);
  EXPECT_EQ(conv.forward_step(x).shape(), Shape({1, 1, 8, 8}));
}

TEST(Conv2d, FanoutPerSpike) {
  Rng rng(11);
  Conv2d conv(Conv2dConfig{3, 32, 3}, rng);
  EXPECT_EQ(conv.fanout_per_spike(), 32 * 9);
}

TEST(Conv2d, ChannelMismatchThrows) {
  Rng rng(12);
  Conv2d conv(Conv2dConfig{3, 4, 3}, rng);
  conv.begin_window(1, false);
  EXPECT_THROW(conv.forward_step(Tensor(Shape{1, 2, 8, 8})),
               InvalidArgument);
}

TEST(MaxPool, ForwardSelectsMaxima) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 9, 1});
  pool.begin_window(1, false);
  Tensor out = pool.forward_step(x);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 2}));
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], 9.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 7, 3, 2});
  pool.begin_window(1, true);
  pool.forward_step(x);
  Tensor g(Shape{1, 1, 1, 1}, {5.0f});
  Tensor gin = pool.backward_step(g);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 5.0f);
  EXPECT_EQ(gin[2], 0.0f);
  EXPECT_EQ(gin[3], 0.0f);
}

TEST(MaxPool, TruncatesRaggedBorder) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 5, 5});
  pool.begin_window(1, false);
  EXPECT_EQ(pool.forward_step(x).shape(), Shape({1, 1, 2, 2}));
}

TEST(MaxPool, GradCheckOnDistinctValues) {
  // Finite differences are valid when no two window entries tie.
  Rng rng(13);
  MaxPool2d pool(2);
  Tensor x(Shape{1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(i) * 0.37f;
  const Tensor probe = probe_weights(Shape{1, 2, 2, 2}, 31);
  pool.begin_window(1, true);
  pool.forward_step(x);
  Tensor gin = pool.backward_step(probe);
  auto f = [&](const Tensor& xin) {
    MaxPool2d p2(2);
    p2.begin_window(1, false);
    return weighted_sum(p2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-3);
  EXPECT_TRUE(res.ok(1e-2, 1e-4)) << res.max_rel_error;
}

TEST(AvgPool, ForwardAverages) {
  AvgPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 3, 5, 7});
  pool.begin_window(1, false);
  Tensor out = pool.forward_step(x);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
}

TEST(AvgPool, GradCheck) {
  Rng rng(14);
  AvgPool2d pool(2);
  Tensor x = Tensor::uniform(Shape{2, 2, 4, 4}, rng, -1.0f, 1.0f);
  const Tensor probe = probe_weights(Shape{2, 2, 2, 2}, 37);
  pool.begin_window(2, true);
  pool.forward_step(x);
  Tensor gin = pool.backward_step(probe);
  auto f = [&](const Tensor& xin) {
    AvgPool2d p2(2);
    p2.begin_window(2, false);
    return weighted_sum(p2.forward_step(xin), probe);
  };
  const auto res = check_gradient(f, x, gin, 1e-3);
  EXPECT_TRUE(res.ok(1e-2, 1e-4)) << res.max_rel_error;
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  flat.begin_window(2, true);
  Tensor x(Shape{2, 3, 4, 5});
  Tensor out = flat.forward_step(x);
  EXPECT_EQ(out.shape(), Shape({2, 60}));
  Tensor g(Shape{2, 60});
  Tensor gin = flat.backward_step(g);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(Flatten, OutputShapePerSample) {
  Flatten flat;
  EXPECT_EQ(flat.output_shape(Shape{3, 4, 5}), Shape({60}));
}

TEST(Layers, ParamListArity) {
  Rng rng(15);
  Conv2d conv(Conv2dConfig{1, 1, 3}, rng);
  EXPECT_EQ(conv.params().size(), 2u);
  Conv2d conv_nb(Conv2dConfig{1, 1, 3, 0, /*bias=*/false}, rng);
  EXPECT_EQ(conv_nb.params().size(), 1u);
  Linear fc(LinearConfig{2, 2}, rng);
  EXPECT_EQ(fc.params().size(), 2u);
  MaxPool2d pool(2);
  EXPECT_TRUE(pool.params().empty());
}

// --- Conv2d kernels against im2col + GEMM ----------------------------------
//
// A test-local copy of the dense lowering every Conv2d path must equal bit
// for bit: per sample im2col, gemm(W, cols) plus the bias; the weight
// gradient gemm_nt(go, cols) accumulated in sample order; the bias gradient
// as per-sample double sums; the input gradient gemm_tn(W, go) then col2im.

struct ConvRef {
  std::vector<Tensor> outputs;  // per forward step
  std::vector<Tensor> grad_inputs;  // per backward step, last step first
  Tensor weight_grad;
  Tensor bias_grad;
};

ConvRef im2col_reference(const Conv2d& conv, const std::vector<Tensor>& xs,
                         const std::vector<Tensor>& gos) {
  const Conv2dConfig& cfg = conv.config();
  const Shape& in = xs.front().shape();
  const ConvGeom g{in[1], in[2], in[3], cfg.kernel, cfg.kernel,
                   cfg.pad,  cfg.pad, 1,    1};
  const std::int64_t n = in[0];
  const std::int64_t ocn = cfg.out_channels;
  const std::int64_t kk = g.col_rows();
  const std::int64_t sp = g.col_cols();
  const std::int64_t in_stride = in[1] * in[2] * in[3];
  const float* w = conv.weight().value.data();
  const float* b = conv.bias().value.data();
  std::vector<float> cols(static_cast<std::size_t>(kk * sp));
  ConvRef r;
  for (const Tensor& x : xs) {
    Tensor out(Shape{n, ocn, g.out_h(), g.out_w()});
    for (std::int64_t i = 0; i < n; ++i) {
      im2col(g, x.data() + i * in_stride, cols.data());
      float* o = out.data() + i * ocn * sp;
      gemm(ocn, sp, kk, 1.0f, w, cols.data(), 0.0f, o);
      for (std::int64_t oc = 0; oc < ocn; ++oc)
        for (std::int64_t s = 0; s < sp; ++s) o[oc * sp + s] += b[oc];
    }
    r.outputs.push_back(std::move(out));
  }
  r.weight_grad = Tensor(conv.weight().value.shape());
  r.bias_grad = Tensor(Shape{ocn});
  std::vector<float> grad_cols(cols.size());
  for (std::size_t t = xs.size(); t-- > 0;) {
    Tensor gin(in);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* go = gos[t].data() + i * ocn * sp;
      im2col(g, xs[t].data() + i * in_stride, cols.data());
      gemm_nt(ocn, kk, sp, 1.0f, go, cols.data(), 1.0f,
              r.weight_grad.data());
      gemm_tn(kk, sp, ocn, 1.0f, w, go, 0.0f, grad_cols.data());
      col2im(g, grad_cols.data(), gin.data() + i * in_stride);
      for (std::int64_t oc = 0; oc < ocn; ++oc) {
        double acc = 0.0;
        for (std::int64_t s = 0; s < sp; ++s) acc += go[oc * sp + s];
        r.bias_grad[oc] += static_cast<float>(acc);
      }
    }
    r.grad_inputs.push_back(std::move(gin));
  }
  return r;
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Binary spikes at `density` (0 and 1 are exact), or dense uniform values
// when density is 1.
Tensor spike_input(const Shape& shape, double density, Rng& rng) {
  if (density >= 1.0) return Tensor::uniform(shape, rng, -1.0f, 1.0f);
  Tensor x(shape);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = rng.uniform() < density ? 1.0f : 0.0f;
  return x;
}

// Runs a 3-step window through `conv` and the reference; `repeat` feeds
// step 0's input at every step.
void expect_conv_matches_reference(std::int64_t pad, double density,
                                   bool repeat) {
  SCOPED_TRACE(testing::Message() << "pad " << pad << " density "
                                  << density << " repeat " << repeat);
  Rng rng(static_cast<std::uint64_t>(31 + pad * 7 + density * 100));
  Conv2d conv(Conv2dConfig{4, 6, 3, pad}, rng);
  const Shape in{3, 4, 9, 7};  // odd, non-square image
  const Shape out{3, 6, 9 + 2 * pad - 2, 7 + 2 * pad - 2};
  std::vector<Tensor> xs, gos;
  for (int t = 0; t < 3; ++t) {
    xs.push_back(repeat && t > 0 ? xs.front() : spike_input(in, density, rng));
    gos.push_back(Tensor::uniform(out, rng, -1.0f, 1.0f));
  }
  const ConvRef want = im2col_reference(conv, xs, gos);

  conv.zero_grad();
  conv.begin_window(in[0], true);
  for (std::size_t t = 0; t < xs.size(); ++t)
    EXPECT_TRUE(bits_equal(conv.forward_step(xs[t]), want.outputs[t]))
        << "output, step " << t;
  for (std::size_t k = 0; k < xs.size(); ++k)
    EXPECT_TRUE(bits_equal(conv.backward_step(gos[xs.size() - 1 - k]),
                           want.grad_inputs[k]))
        << "input grad, step " << xs.size() - 1 - k;
  EXPECT_TRUE(bits_equal(conv.weight().grad, want.weight_grad));
  EXPECT_TRUE(bits_equal(conv.bias().grad, want.bias_grad));
}

TEST(Conv2d, SparseDispatchMatchesIm2colGemmBitwise) {
  // Density 0 and 0.1 take the spike-index kernels, 1.0 im2col + GEMM.
  for (std::int64_t pad : {0, 1})
    for (double density : {0.0, 0.1, 1.0})
      expect_conv_matches_reference(pad, density, /*repeat=*/false);
}

TEST(Conv2d, RepeatedStepInputMatchesRecompute) {
  // Direct coding: one input at every step.  The reused output and cached
  // columns must give what recomputing every step gives.
  for (std::int64_t pad : {0, 1})
    for (double density : {0.1, 1.0})
      expect_conv_matches_reference(pad, density, /*repeat=*/true);
}

}  // namespace
}  // namespace spiketune::snn
