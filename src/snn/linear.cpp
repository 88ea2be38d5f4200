#include "snn/linear.h"

#include <algorithm>

#include "core/error.h"
#include "tensor/gemm.h"

namespace spiketune::snn {

Linear::Linear(LinearConfig config, Rng& rng)
    : config_(config),
      weight_("linear.weight",
              Tensor::kaiming_uniform(
                  Shape{config.out_features, config.in_features}, rng,
                  config.in_features)),
      bias_("linear.bias", config.bias
                               ? Tensor::kaiming_uniform(
                                     Shape{config.out_features}, rng,
                                     config.in_features)
                               : Tensor(Shape{0})) {
  ST_REQUIRE(config_.in_features > 0 && config_.out_features > 0,
             "linear features must be positive");
}

void Linear::begin_window(std::int64_t, bool training) {
  training_ = training;
  cached_steps_ = 0;
}

const Tensor& Linear::forward_step(const Tensor& input) {
  const Shape& s = input.shape();
  ST_REQUIRE(s.rank() == 2 && s[1] == config_.in_features,
             "linear expects [N, in_features], got " + s.str());
  const std::int64_t n = s[0];

  // gemm_nt with beta 0 writes every output element.
  Tensor& output = buffers_.get(kOut, Shape{n, config_.out_features});
  // y[N, out] = x[N, in] * W[out, in]^T
  gemm_nt(n, config_.out_features, config_.in_features, 1.0f, input.data(),
          weight_.value.data(), 0.0f, output.data());
  if (config_.bias) {
    float* out = output.data();
    const float* b = bias_.value.data();
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < config_.out_features; ++j)
        out[i * config_.out_features + j] += b[j];
  }
  if (training_) {
    Tensor& cached = buffers_.get(kInput + cached_steps_++, s);
    std::copy(input.data(), input.data() + input.numel(), cached.data());
  }
  return output;
}

const Tensor& Linear::backward_step(const Tensor& grad_output) {
  backward(grad_output, true);
  return buffers_.at(kGradIn);
}

void Linear::backward_step_params(const Tensor& grad_output) {
  backward(grad_output, false);
}

void Linear::backward(const Tensor& grad_output, bool input_grad) {
  ST_REQUIRE(cached_steps_ > 0,
             "linear backward without matching cached forward step");
  const Tensor& input = buffers_.at(kInput + --cached_steps_);

  const std::int64_t n = input.shape()[0];
  ST_REQUIRE(grad_output.shape() == Shape({n, config_.out_features}),
             "linear grad_output shape mismatch");

  // gW[out, in] += go[N, out]^T * x[N, in]
  gemm_tn(config_.out_features, config_.in_features, n, 1.0f,
          grad_output.data(), input.data(), 1.0f, weight_.grad.data());
  // gx[N, in] = go[N, out] * W[out, in]; beta 0 writes every element.
  if (input_grad)
    gemm(n, config_.in_features, config_.out_features, 1.0f,
         grad_output.data(), weight_.value.data(), 0.0f,
         buffers_.get(kGradIn, input.shape()).data());
  if (config_.bias) {
    float* gb = bias_.grad.data();
    const float* go = grad_output.data();
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < config_.out_features; ++j)
        gb[j] += go[i * config_.out_features + j];
  }
}

std::vector<Param*> Linear::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape Linear::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 1 && input[0] == config_.in_features,
             "linear output_shape expects [in_features]");
  return Shape{config_.out_features};
}

}  // namespace spiketune::snn
