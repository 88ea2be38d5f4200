// 2-D convolution layer (stride-1/optional-padding, im2col + GEMM).
//
// Input  per step: [N, IC, H, W]
// Output per step: [N, OC, OH, OW]
// Weight: [OC, IC*KH*KW] (filter-major, im2col order), bias: [OC].
//
// The GEMM kernels skip zero elements of the spike matrix, so the forward
// pass is effectively event-driven when fed binary spike trains — the same
// compute-skipping the sparsity-aware accelerator performs in hardware.
#pragma once

#include "core/rng.h"
#include "snn/layers.h"
#include "tensor/im2col.h"

namespace spiketune::snn {

struct Conv2dConfig {
  std::int64_t in_channels;
  std::int64_t out_channels;
  std::int64_t kernel = 3;
  std::int64_t pad = 0;
  bool bias = true;
};

class Conv2d final : public Layer {
 public:
  Conv2d(Conv2dConfig config, Rng& rng);

  void begin_window(std::int64_t batch_size, bool training) override;
  Tensor forward_step(const Tensor& input) override;
  Tensor backward_step(const Tensor& grad_output) override;
  void backward_step_params(const Tensor& grad_output) override;

  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "conv2d"; }

  const Conv2dConfig& config() const { return config_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

  /// Synaptic fan-out of one input spike: the number of MACs it triggers
  /// (= OC * KH * KW for interior pixels); used by the hardware workload
  /// extractor.
  std::int64_t fanout_per_spike() const {
    return config_.out_channels * config_.kernel * config_.kernel;
  }

 private:
  ConvGeom geom_for(const Shape& input) const;
  // One backward step; computes dL/d(input) only when `input_grad`.
  Tensor backward(const Tensor& grad_output, bool input_grad);

  Conv2dConfig config_;
  Param weight_;
  Param bias_;
  bool training_ = false;
  std::vector<Tensor> input_cache_;  // per-step inputs (training only)
  std::vector<float> col_buf_;       // backward scratch reused across steps
                                     // (forward uses per-slice buffers)
};

}  // namespace spiketune::snn
