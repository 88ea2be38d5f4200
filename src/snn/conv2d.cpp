#include "snn/conv2d.h"

#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/profiler.h"
#include "tensor/gemm.h"

namespace spiketune::snn {

Conv2d::Conv2d(Conv2dConfig config, Rng& rng)
    : config_(config),
      weight_("conv.weight",
              Tensor::kaiming_uniform(
                  Shape{config.out_channels,
                        config.in_channels * config.kernel * config.kernel},
                  rng, config.in_channels * config.kernel * config.kernel)),
      bias_("conv.bias",
            config.bias
                ? Tensor::kaiming_uniform(
                      Shape{config.out_channels}, rng,
                      config.in_channels * config.kernel * config.kernel)
                : Tensor(Shape{0})) {
  ST_REQUIRE(config_.in_channels > 0 && config_.out_channels > 0,
             "conv channels must be positive");
  ST_REQUIRE(config_.kernel > 0 && config_.pad >= 0, "bad conv geometry");
}

ConvGeom Conv2d::geom_for(const Shape& input) const {
  ST_REQUIRE(input.rank() == 4, "conv expects [N, C, H, W]");
  ST_REQUIRE(input[1] == config_.in_channels,
             "conv input channel mismatch: got " + input.str());
  return ConvGeom{config_.in_channels, input[2],      input[3],
                  config_.kernel,      config_.kernel, config_.pad,
                  config_.pad,         1,              1};
}

void Conv2d::begin_window(std::int64_t, bool training) {
  training_ = training;
  input_cache_.clear();
}

Tensor Conv2d::forward_step(const Tensor& input) {
  ST_PROF_SCOPE("conv2d.fwd");
  const ConvGeom g = geom_for(input.shape());
  const std::int64_t n = input.shape()[0];
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t kk = g.col_rows();    // IC*KH*KW
  const std::int64_t spatial = oh * ow;

  Tensor output(Shape{n, config_.out_channels, oh, ow});

  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = config_.out_channels * spatial;
  // The forward pass has no cross-sample reductions, so the batch splits
  // across threads with one im2col scratch buffer per slice; each sample
  // writes its own output block.  (With a single-sample batch the slice
  // runs inline and the im2col/gemm kernels parallelize internally.)
  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    std::vector<float> cols(static_cast<std::size_t>(kk * spatial));
    for (std::int64_t i = sb; i < se; ++i) {
      im2col(g, input.data() + i * in_stride, cols.data());
      // out[OC, OHW] = W[OC, K] * cols[K, OHW]
      gemm(config_.out_channels, spatial, kk, 1.0f, weight_.value.data(),
           cols.data(), 0.0f, output.data() + i * out_stride);
      if (config_.bias) {
        float* out = output.data() + i * out_stride;
        const float* b = bias_.value.data();
        for (std::int64_t oc = 0; oc < config_.out_channels; ++oc) {
          const float bv = b[oc];
          float* plane = out + oc * spatial;
          for (std::int64_t s = 0; s < spatial; ++s) plane[s] += bv;
        }
      }
    }
  });

  if (training_) input_cache_.push_back(input);
  return output;
}

Tensor Conv2d::backward_step(const Tensor& grad_output) {
  return backward(grad_output, true);
}

void Conv2d::backward_step_params(const Tensor& grad_output) {
  backward(grad_output, false);
}

Tensor Conv2d::backward(const Tensor& grad_output, bool input_grad) {
  ST_PROF_SCOPE("conv2d.bwd");
  ST_REQUIRE(!input_cache_.empty(),
             "conv backward without matching cached forward step");
  Tensor input = std::move(input_cache_.back());
  input_cache_.pop_back();

  const ConvGeom g = geom_for(input.shape());
  const std::int64_t n = input.shape()[0];
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t kk = g.col_rows();
  const std::int64_t spatial = oh * ow;
  ST_REQUIRE(grad_output.shape() ==
                 Shape({n, config_.out_channels, oh, ow}),
             "conv grad_output shape mismatch");

  Tensor grad_input = input_grad ? Tensor(input.shape()) : Tensor();
  std::vector<float> grad_cols(
      input_grad ? static_cast<std::size_t>(kk * spatial) : 0);
  col_buf_.resize(static_cast<std::size_t>(kk * spatial));

  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = config_.out_channels * spatial;
  // The weight gradient accumulates across samples, so the sample loop
  // stays serial to preserve the serial path's summation order exactly;
  // the per-sample im2col/gemm/col2im kernels parallelize internally over
  // disjoint output rows instead.
  for (std::int64_t i = 0; i < n; ++i) {
    const float* go = grad_output.data() + i * out_stride;
    // Weight gradient: gW[OC, K] += go[OC, OHW] * cols[K, OHW]^T.
    im2col(g, input.data() + i * in_stride, col_buf_.data());
    gemm_nt(config_.out_channels, kk, spatial, 1.0f, go, col_buf_.data(),
            1.0f, weight_.grad.data());
    // Input gradient: gCols[K, OHW] = W[OC, K]^T * go[OC, OHW].
    if (input_grad) {
      gemm_tn(kk, spatial, config_.out_channels, 1.0f, weight_.value.data(),
              go, 0.0f, grad_cols.data());
      col2im(g, grad_cols.data(), grad_input.data() + i * in_stride);
    }
    // Bias gradient: sum over spatial positions (disjoint per channel).
    if (config_.bias) {
      float* gb = bias_.grad.data();
      parallel_for(0, config_.out_channels, 4,
                   [&](std::int64_t ob, std::int64_t oe) {
                     for (std::int64_t oc = ob; oc < oe; ++oc) {
                       const float* plane = go + oc * spatial;
                       double acc = 0.0;
                       for (std::int64_t s = 0; s < spatial; ++s)
                         acc += plane[s];
                       gb[oc] += static_cast<float>(acc);
                     }
                   });
    }
  }
  return grad_input;
}

std::vector<Param*> Conv2d::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape Conv2d::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 3, "output_shape expects per-sample [C, H, W]");
  const std::int64_t oh =
      conv_out_dim(input[1], config_.kernel, config_.pad, 1);
  const std::int64_t ow =
      conv_out_dim(input[2], config_.kernel, config_.pad, 1);
  return Shape{config_.out_channels, oh, ow};
}

}  // namespace spiketune::snn
