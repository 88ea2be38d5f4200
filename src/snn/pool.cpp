#include "snn/pool.h"

#include "core/error.h"
#include "snn/pool_kernels.h"

namespace spiketune::snn {

namespace {
using pool_kernels::PoolGeom;

void require_4d(const Shape& s, const char* who) {
  ST_REQUIRE(s.rank() == 4, std::string(who) + " expects [N, C, H, W]");
}

Shape pooled_shape(const Shape& in, std::int64_t k) {
  // floor division truncates ragged borders, like PyTorch's default.
  return Shape{in[0], in[1], in[2] / k, in[3] / k};
}

// Step buffer slots.  The output and the input gradient differ in size,
// so each keeps its own storage and neither regrows every step.
constexpr std::size_t kOut = 0;
constexpr std::size_t kGrad = 1;

PoolGeom geom(const Shape& in, std::int64_t k) {
  return PoolGeom{in[0] * in[1], in[2], in[3], k};
}
}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel) : kernel_(kernel) {
  ST_REQUIRE(kernel_ > 0, "pool kernel must be positive");
}

void MaxPool2d::begin_window(std::int64_t, bool training) {
  training_ = training;
  steps_ = 0;
}

const Tensor& MaxPool2d::forward_step(const Tensor& input) {
  require_4d(input.shape(), "maxpool");
  const Shape out_shape = pooled_shape(input.shape(), kernel_);
  ST_REQUIRE(out_shape[2] > 0 && out_shape[3] > 0,
             "maxpool input smaller than kernel");

  // An inference step records its taps too, in slot 0, and drops them.
  const std::size_t slot = training_ ? steps_ : 0;
  if (cache_.size() <= slot) cache_.resize(slot + 1);
  StepCache& cache = cache_[slot];
  cache.input_shape = input.shape();
  cache.taps.resize(static_cast<std::size_t>(out_shape.numel()));
  if (training_) ++steps_;

  Tensor& output = buffers_.get(kOut, out_shape);
  pool_kernels::max_forward(geom(input.shape(), kernel_), input.data(),
                            output.data(), cache.taps.data());
  return output;
}

const Tensor& MaxPool2d::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(steps_ > 0,
             "maxpool backward without matching cached forward step");
  const StepCache& cache = cache_[--steps_];
  ST_REQUIRE(grad_output.numel() ==
                 static_cast<std::int64_t>(cache.taps.size()),
             "maxpool grad_output size mismatch");

  Tensor& grad_input = buffers_.get(kGrad, cache.input_shape);
  pool_kernels::max_backward(geom(cache.input_shape, kernel_),
                             grad_output.data(), cache.taps.data(),
                             grad_input.data());
  return grad_input;
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 3, "output_shape expects per-sample [C, H, W]");
  return Shape{input[0], input[1] / kernel_, input[2] / kernel_};
}

AvgPool2d::AvgPool2d(std::int64_t kernel) : kernel_(kernel) {
  ST_REQUIRE(kernel_ > 0, "pool kernel must be positive");
}

void AvgPool2d::begin_window(std::int64_t, bool training) {
  training_ = training;
  steps_ = 0;
}

const Tensor& AvgPool2d::forward_step(const Tensor& input) {
  require_4d(input.shape(), "avgpool");
  const Shape out_shape = pooled_shape(input.shape(), kernel_);
  ST_REQUIRE(out_shape[2] > 0 && out_shape[3] > 0,
             "avgpool input smaller than kernel");

  Tensor& output = buffers_.get(kOut, out_shape);
  const PoolGeom g = geom(input.shape(), kernel_);
  if (kernel_ == 2)
    pool_kernels::avg_forward<2>(g, input.data(), output.data());
  else
    pool_kernels::avg_forward<0>(g, input.data(), output.data());
  if (training_) {
    if (shapes_.size() <= steps_) shapes_.resize(steps_ + 1);
    shapes_[steps_++] = input.shape();
  }
  return output;
}

const Tensor& AvgPool2d::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(steps_ > 0,
             "avgpool backward without matching cached forward step");
  const Shape& in_shape = shapes_[--steps_];
  ST_REQUIRE(grad_output.shape() == pooled_shape(in_shape, kernel_),
             "avgpool grad_output shape mismatch");

  Tensor& grad_input = buffers_.get(kGrad, in_shape);
  const PoolGeom g = geom(in_shape, kernel_);
  if (kernel_ == 2)
    pool_kernels::avg_backward<2>(g, grad_output.data(), grad_input.data());
  else
    pool_kernels::avg_backward<0>(g, grad_output.data(), grad_input.data());
  return grad_input;
}

Shape AvgPool2d::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 3, "output_shape expects per-sample [C, H, W]");
  return Shape{input[0], input[1] / kernel_, input[2] / kernel_};
}

}  // namespace spiketune::snn
