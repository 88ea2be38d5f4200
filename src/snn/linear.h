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
  const Tensor& forward_step(const Tensor& input) override;
  const Tensor& backward_step(const Tensor& grad_output) override;
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
  // Step buffer slots: the output, the input gradient, then the input of
  // step t in slot kInput + t (training only).
  enum Slot : std::size_t { kOut, kGradIn, kInput };

  // One backward step; computes dL/d(input) only when `input_grad`.
  void backward(const Tensor& grad_output, bool input_grad);

  LinearConfig config_;
  Param weight_;
  Param bias_;
  bool training_ = false;
  std::size_t cached_steps_ = 0;  // input slots not yet run backward
};

}  // namespace spiketune::snn
