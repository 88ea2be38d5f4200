// Fully-connected layer.
//
// Input per step: [N, in_features]; output [N, out_features].
// Weight: [out_features, in_features]; y = x W^T + b.
#pragma once

#include "core/rng.h"
#include "snn/layers.h"

namespace spiketune::snn {

struct LinearConfig {
  std::int64_t in_features;
  std::int64_t out_features;
  bool bias = true;
};

class Linear final : public Layer {
 public:
  Linear(LinearConfig config, Rng& rng);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  Tensor backward_step(const Tensor& grad_output) override;
  void backward_step_params(const Tensor& grad_output) override;

  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "linear"; }

  const LinearConfig& config() const { return config_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

  /// MACs triggered by one input spike (= out_features).
  std::int64_t fanout_per_spike() const { return config_.out_features; }

 private:
  // One backward step; computes dL/d(input) only when `input_grad`.
  Tensor backward(const Tensor& grad_output, bool input_grad);

  LinearConfig config_;
  Param weight_;
  Param bias_;
  bool training_ = false;
  std::vector<Tensor> input_cache_;
};

}  // namespace spiketune::snn
