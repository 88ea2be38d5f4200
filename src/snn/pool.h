// Spatial pooling layers over [N, C, H, W].
//
// MaxPool2d caches the argmax tap per output cell for backward routing;
// AvgPool2d distributes gradient uniformly over its window.  Both use
// non-overlapping windows (kernel == stride), truncating ragged borders
// like PyTorch's default (floor division).  The kernels are in
// snn/pool_kernels.h; AvgPool2d with k = 2 runs an instantiation with the
// window size fixed at compile time.
#pragma once

#include "snn/layers.h"

namespace spiketune::snn {

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::int64_t kernel);

  void begin_window(std::int64_t batch_size, bool training) override;
  const Tensor& forward_step(const Tensor& input) override;
  const Tensor& backward_step(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "maxpool2d"; }
  std::int64_t kernel() const { return kernel_; }

 private:
  struct StepCache {
    Shape input_shape;
    std::vector<std::int32_t> taps;  // argmax tap per output element
  };
  std::int64_t kernel_;
  bool training_ = false;
  std::vector<StepCache> cache_;  // by step; the first steps_ are live
  std::size_t steps_ = 0;
};

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::int64_t kernel);

  void begin_window(std::int64_t batch_size, bool training) override;
  const Tensor& forward_step(const Tensor& input) override;
  const Tensor& backward_step(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "avgpool2d"; }
  std::int64_t kernel() const { return kernel_; }

 private:
  std::int64_t kernel_;
  bool training_ = false;
  std::vector<Shape> shapes_;  // input shape by step; the first steps_ live
  std::size_t steps_ = 0;
};

}  // namespace spiketune::snn
