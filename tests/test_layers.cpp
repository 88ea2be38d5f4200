// Conv2d / Linear / Pool / Flatten layers: forward semantics and numeric
// gradient checks of every backward path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "snn/conv2d.h"
#include "snn/linear.h"
#include "snn/pool.h"
#include "snn/pool_kernels.h"
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
// as per-sample double sums; the input gradient gemm_tn(W, go) then col2im
// onto a zeroed plane.

// The col2im that the input gradient used to run: adds each column row
// (c, kh, kw), in ascending order, onto image plane c.
void col2im(const ConvGeom& g, const float* columns, float* image) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* plane = image + c * g.height * g.width;
    std::int64_t row = c * g.kernel_h * g.kernel_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = columns + row * oh * ow;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t sy = y + kh - g.pad_h;
          if (sy < 0 || sy >= g.height) continue;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t sx = x + kw - g.pad_w;
            if (sx >= 0 && sx < g.width)
              plane[sy * g.width + sx] += in[y * ow + x];
          }
        }
      }
  }
}

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

// An [N, C, H, W] output gradient at `density`.  1 is dense uniform.  Below
// it, kMaxPoolLike places one value per whole 2x2 window of each plane, at
// a random tap, as a max pool's backward does (about 0.17 nonzero here);
// other densities place values at random.  Below 1, the zeros mix +0 and
// −0, and sample 1 is all zeros.
constexpr double kMaxPoolLike = 0.17;

Tensor output_grad(const Shape& shape, double density, Rng& rng) {
  if (density >= 1.0) return Tensor::uniform(shape, rng, -1.0f, 1.0f);
  Tensor go(shape);
  for (std::int64_t i = 0; i < go.numel(); ++i)
    go[i] = rng.uniform() < 0.5 ? -0.0f : 0.0f;
  const std::int64_t h = shape[2];
  const std::int64_t w = shape[3];
  for (std::int64_t plane = 0; plane < shape[0] * shape[1]; ++plane) {
    if (plane / shape[1] == 1) continue;  // sample 1 stays all zeros
    float* p = go.data() + plane * h * w;
    if (density == kMaxPoolLike) {
      for (std::int64_t y = 0; y + 2 <= h; y += 2)
        for (std::int64_t x = 0; x + 2 <= w; x += 2) {
          const auto tap = static_cast<std::int64_t>(rng.uniform_int(4));
          p[(y + tap / 2) * w + x + tap % 2] =
              static_cast<float>(rng.uniform(-1.0, 1.0));
        }
    } else {
      for (std::int64_t e = 0; e < h * w; ++e)
        if (rng.uniform() < density)
          p[e] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return go;
}

// One reference check: `density` is the input's, `go_density` the output
// gradient's (output_grad), `repeat` feeds step 0's input at every step.
struct ConvCase {
  std::int64_t pad = 0;
  double density = 0.1;
  bool repeat = false;
  double go_density = 1.0;
  int threads = 1;
  std::int64_t in_channels = 4;
  std::int64_t batch = 3;
};

// Runs two 3-step windows through a conv and the reference at c.threads
// participants, with the weights moved in between as an optimizer step
// would.
void expect_conv_matches_reference(const ConvCase& c) {
  SCOPED_TRACE(testing::Message()
               << "pad " << c.pad << " density " << c.density << " repeat "
               << c.repeat << " go density " << c.go_density << " threads "
               << c.threads << " in channels " << c.in_channels << " batch "
               << c.batch);
  set_num_threads(c.threads);
  Rng rng(static_cast<std::uint64_t>(
      31 + c.pad * 7 + c.density * 100 +
      (c.go_density < 1.0 ? c.go_density * 1000 : 0.0) +
      (c.in_channels - 4) * 10000));
  Conv2d conv(Conv2dConfig{c.in_channels, 6, 3, c.pad}, rng);
  const Shape in{c.batch, c.in_channels, 9, 7};  // odd, non-square image
  const Shape out{c.batch, 6, 9 + 2 * c.pad - 2, 7 + 2 * c.pad - 2};
  for (int window = 0; window < 2; ++window) {
    SCOPED_TRACE(testing::Message() << "window " << window);
    Tensor& w = conv.weight().value;
    if (window > 0)
      for (std::int64_t i = 0; i < w.numel(); ++i)
        w[i] += static_cast<float>(rng.uniform(-0.1, 0.1));
    // Signed zero weights: their products are ±0 wherever they land.
    for (std::int64_t i = window; i < w.numel(); i += 5)
      w[i] = i % 2 == 0 ? 0.0f : -0.0f;
    std::vector<Tensor> xs, gos;
    for (int t = 0; t < 3; ++t) {
      xs.push_back(c.repeat && t > 0 ? xs.front()
                                     : spike_input(in, c.density, rng));
      gos.push_back(output_grad(out, c.go_density, rng));
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
  set_num_threads(1);
}

TEST(Conv2d, SparseDispatchMatchesIm2colGemmBitwise) {
  // Density 0 and 0.1 take the spike-index kernels, 1.0 im2col + GEMM.
  for (std::int64_t pad : {0, 1})
    for (double density : {0.0, 0.1, 1.0})
      expect_conv_matches_reference({.pad = pad, .density = density});
}

TEST(Conv2d, RepeatedStepInputMatchesRecompute) {
  // Direct coding: one input at every step.  The reused output and cached
  // columns must give what recomputing every step gives.
  for (std::int64_t pad : {0, 1})
    for (double density : {0.1, 1.0})
      expect_conv_matches_reference(
          {.pad = pad, .density = density, .repeat = true});
}

TEST(Conv2d, InputGradMatchesGemmTnCol2imAtEveryGradientDensity) {
  // The input gradient is built from the nonzero output gradients only;
  // it must equal gemm_tn + col2im at any density, with signed zeros and
  // an all-zero sample, and at any thread count.  Batch 10 runs the bias
  // gradient's eight interleaved sums and its remainder.
  for (int threads : {1, 3})
    for (std::int64_t pad : {0, 1})
      for (double go_density : {0.0, kMaxPoolLike, 0.5, 1.0})
        expect_conv_matches_reference({.pad = pad,
                                       .go_density = go_density,
                                       .threads = threads,
                                       .batch = 10});
}

TEST(Conv2d, InputGradMatchesGemmTnCol2imAtEveryChannelBlock) {
  // 3, 59 and 75 input channels between them take every register block
  // of the row kernel (K = 9 * IC: 8, 4, 2 and 1 vectors and a partial
  // one) and of the gather (the same over IC, and a scalar tail).
  for (std::int64_t in_channels : {3, 59, 75})
    for (double go_density : {kMaxPoolLike, 1.0})
      expect_conv_matches_reference({.pad = 1,
                                     .go_density = go_density,
                                     .in_channels = in_channels});
}

// --- Pool kernels ------------------------------------------------------------
//
// Every instantiation of a pool body against the runtime-k one, and both
// layers against a test-local copy of the loops as they were before the
// kernels were templated: a runtime window, and a backward that adds the
// output gradient into a zero-filled input gradient.  That form turns a
// -0.0 gradient into +0.0 (0 + -0 is +0); a plain store would keep -0.0.

struct PoolRef {
  Tensor out;
  std::vector<std::int64_t> argmax;  // flat input index (max pool)
};

PoolRef ref_pool_forward(const Tensor& x, std::int64_t k, bool max) {
  const Shape& s = x.shape();
  const std::int64_t h = s[2], w = s[3], oh = h / k, ow = w / k;
  PoolRef r{Tensor(Shape{s[0], s[1], oh, ow}), {}};
  r.argmax.resize(static_cast<std::size_t>(r.out.numel()));
  const float inv = 1.0f / static_cast<float>(k * k);
  for (std::int64_t p = 0; p < s[0] * s[1]; ++p)
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        const float* plane = x.data() + p * h * w;
        const std::int64_t o = (p * oh + y) * ow + xo;
        float acc = 0.0f;
        std::int64_t best = (y * k) * w + xo * k;
        for (std::int64_t dy = 0; dy < k; ++dy)
          for (std::int64_t dx = 0; dx < k; ++dx) {
            const std::int64_t idx = (y * k + dy) * w + (xo * k + dx);
            acc += plane[idx];
            if (plane[idx] > plane[best]) best = idx;
          }
        r.out[o] = max ? plane[best] : acc * inv;
        r.argmax[static_cast<std::size_t>(o)] = p * h * w + best;
      }
  return r;
}

Tensor ref_pool_backward(const Shape& in, const PoolRef& fwd,
                         const Tensor& go, std::int64_t k, bool max) {
  const std::int64_t h = in[2], w = in[3], oh = h / k, ow = w / k;
  const float inv = 1.0f / static_cast<float>(k * k);
  Tensor gi(in);
  for (std::int64_t p = 0; p < in[0] * in[1]; ++p)
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        const std::int64_t o = (p * oh + y) * ow + xo;
        if (max) {
          gi[fwd.argmax[static_cast<std::size_t>(o)]] += go[o];
          continue;
        }
        for (std::int64_t dy = 0; dy < k; ++dy)
          for (std::int64_t dx = 0; dx < k; ++dx)
            gi[p * h * w + (y * k + dy) * w + (xo * k + dx)] += go[o] * inv;
      }
  return gi;
}

// Values from a small set, so windows hold ties, +0.0 and -0.0.
Tensor pool_values(const Shape& shape, Rng& rng) {
  static const float kValues[] = {-1.5f, -0.0f, 0.0f, 0.25f, 1.0f, 2.0f};
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = kValues[rng.uniform_int(6)];
  return t;
}

using PlaneSize = std::pair<std::int64_t, std::int64_t>;  // H, W

struct PoolOutputs {
  Tensor out, grad;
};

// Forward and backward kernels over a [3, 5, h, w] batch.  The outputs
// start out as `fill`, so an element a kernel skips shows.
template <int K>
PoolOutputs run_avg_kernels(const pool_kernels::PoolGeom& g, const Tensor& x,
                            const Tensor& go, float fill) {
  PoolOutputs r{Tensor::full(go.shape(), fill), Tensor::full(x.shape(), fill)};
  pool_kernels::avg_forward<K>(g, x.data(), r.out.data());
  pool_kernels::avg_backward<K>(g, go.data(), r.grad.data());
  return r;
}

PoolOutputs run_max_kernels(const pool_kernels::PoolGeom& g, const Tensor& x,
                            const Tensor& go, float fill) {
  PoolOutputs r{Tensor::full(go.shape(), fill), Tensor::full(x.shape(), fill)};
  std::vector<std::int32_t> taps(static_cast<std::size_t>(go.numel()));
  pool_kernels::max_forward(g, x.data(), r.out.data(), taps.data());
  pool_kernels::max_backward(g, go.data(), taps.data(), r.grad.data());
  return r;
}

// Even and odd (ragged) planes.
const PlaneSize kKernelPlanes[] = {PlaneSize{8, 6}, PlaneSize{7, 9},
                                   PlaneSize{14, 14}, PlaneSize{5, 4}};

template <int K>
void expect_avg_instantiation_matches_runtime_k(PlaneSize size) {
  const auto [h, w] = size;
  SCOPED_TRACE(testing::Message() << "k " << K << ", " << h << "x" << w);
  Rng rng(static_cast<std::uint64_t>(K * 100 + h * 10 + w));
  const Tensor x = pool_values(Shape{3, 5, h, w}, rng);
  const Tensor go = pool_values(Shape{3, 5, h / K, w / K}, rng);
  const pool_kernels::PoolGeom g{15, h, w, K};
  const PoolOutputs fixed = run_avg_kernels<K>(g, x, go, 7.0f);
  const PoolOutputs runtime = run_avg_kernels<0>(g, x, go, -7.0f);
  EXPECT_TRUE(bits_equal(fixed.out, runtime.out)) << "forward";
  EXPECT_TRUE(bits_equal(fixed.grad, runtime.grad)) << "backward";
}

TEST(PoolKernels, FixedWindowMatchesRuntimeWindowBitwise) {
  // The k = 2 the average pool instantiates, and k = 3.
  for (PlaneSize size : kKernelPlanes) {
    expect_avg_instantiation_matches_runtime_k<2>(size);
    expect_avg_instantiation_matches_runtime_k<3>(size);
  }
}

TEST(PoolKernels, MaxWritesEveryElementAsTheUnfusedLoops) {
  for (std::int64_t k : {2, 3})
    for (PlaneSize size : kKernelPlanes) {
      const auto [h, w] = size;
      SCOPED_TRACE(testing::Message() << "k " << k << ", " << h << "x" << w);
      Rng rng(static_cast<std::uint64_t>(k * 100 + h * 10 + w));
      const Tensor x = pool_values(Shape{3, 5, h, w}, rng);
      const Tensor go = pool_values(Shape{3, 5, h / k, w / k}, rng);
      const PoolOutputs got =
          run_max_kernels(pool_kernels::PoolGeom{15, h, w, k}, x, go, 7.0f);
      const PoolRef ref = ref_pool_forward(x, k, true);
      EXPECT_TRUE(bits_equal(got.out, ref.out)) << "forward";
      EXPECT_TRUE(bits_equal(got.grad,
                             ref_pool_backward(x.shape(), ref, go, k, true)))
          << "backward";
    }
}

// A 3-step training window through the layer against the reference, with
// fresh inputs and gradients per step.
template <typename Pool>
void expect_pool_layer_matches_reference(std::int64_t k, PlaneSize size,
                                         bool max) {
  const auto [h, w] = size;
  SCOPED_TRACE(testing::Message() << (max ? "max" : "avg") << " k " << k
                                  << ", " << h << "x" << w);
  Rng rng(static_cast<std::uint64_t>(k * 1000 + h * 10 + w + max));
  Pool pool(k);
  const Shape in{2, 3, h, w};
  const Shape out{2, 3, h / k, w / k};
  std::vector<Tensor> xs, gos;
  for (int t = 0; t < 3; ++t) {
    xs.push_back(pool_values(in, rng));
    gos.push_back(pool_values(out, rng));
  }
  pool.begin_window(2, true);
  std::vector<PoolRef> refs;
  for (const Tensor& x : xs) {
    refs.push_back(ref_pool_forward(x, k, max));
    EXPECT_TRUE(bits_equal(pool.forward_step(x), refs.back().out));
  }
  for (int t = 2; t >= 0; --t) {
    const Tensor want = ref_pool_backward(in, refs[static_cast<std::size_t>(t)],
                                          gos[static_cast<std::size_t>(t)], k,
                                          max);
    EXPECT_TRUE(bits_equal(pool.backward_step(gos[static_cast<std::size_t>(t)]),
                           want))
        << "step " << t;
  }
}

TEST(PoolLayers, MatchUnfusedLoopsBitwise) {
  for (std::int64_t k : {2, 3})
    for (PlaneSize size : {PlaneSize{6, 6}, PlaneSize{7, 5}, PlaneSize{9, 10}}) {
      expect_pool_layer_matches_reference<AvgPool2d>(k, size, false);
      expect_pool_layer_matches_reference<MaxPool2d>(k, size, true);
    }
}

TEST(PoolLayers, NegativeZeroGradientBecomesPositiveZero) {
  // The one case where `0 + g` and a plain store of g differ.
  for (bool max : {false, true}) {
    SCOPED_TRACE(max ? "max" : "avg");
    std::unique_ptr<Layer> pool;
    if (max)
      pool = std::make_unique<MaxPool2d>(2);
    else
      pool = std::make_unique<AvgPool2d>(2);
    pool->begin_window(1, true);
    pool->forward_step(Tensor(Shape{1, 1, 3, 2}, {1, 2, 3, 4, 5, 6}));
    const Tensor& gi = pool->backward_step(Tensor(Shape{1, 1, 1, 1}, {-0.0f}));
    ASSERT_EQ(gi.shape(), Shape({1, 1, 3, 2}));
    for (std::int64_t i = 0; i < gi.numel(); ++i)
      EXPECT_FALSE(std::signbit(gi[i])) << "element " << i;
  }
}

}  // namespace
}  // namespace spiketune::snn
