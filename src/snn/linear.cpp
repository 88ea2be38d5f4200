#include "snn/linear.h"

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
  input_cache_.clear();
}

Tensor Linear::forward_step(const Tensor& input) {
  const Shape& s = input.shape();
  ST_REQUIRE(s.rank() == 2 && s[1] == config_.in_features,
             "linear expects [N, in_features], got " + s.str());
  const std::int64_t n = s[0];

  Tensor output(Shape{n, config_.out_features});
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
  if (training_) input_cache_.push_back(input);
  return output;
}

Tensor Linear::backward_step(const Tensor& grad_output) {
  return backward(grad_output, true);
}

void Linear::backward_step_params(const Tensor& grad_output) {
  backward(grad_output, false);
}

Tensor Linear::backward(const Tensor& grad_output, bool input_grad) {
  ST_REQUIRE(!input_cache_.empty(),
             "linear backward without matching cached forward step");
  Tensor input = std::move(input_cache_.back());
  input_cache_.pop_back();

  const std::int64_t n = input.shape()[0];
  ST_REQUIRE(grad_output.shape() == Shape({n, config_.out_features}),
             "linear grad_output shape mismatch");

  // gW[out, in] += go[N, out]^T * x[N, in]
  gemm_tn(config_.out_features, config_.in_features, n, 1.0f,
          grad_output.data(), input.data(), 1.0f, weight_.grad.data());
  // gx[N, in] = go[N, out] * W[out, in]
  Tensor grad_input;
  if (input_grad) {
    grad_input = Tensor(input.shape());
    gemm(n, config_.in_features, config_.out_features, 1.0f,
         grad_output.data(), weight_.value.data(), 0.0f, grad_input.data());
  }
  if (config_.bias) {
    float* gb = bias_.grad.data();
    const float* go = grad_output.data();
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < config_.out_features; ++j)
        gb[j] += go[i * config_.out_features + j];
  }
  return grad_input;
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
