// 2-D convolution layer (stride-1, optional padding).
//
// Input  per step: [N, IC, H, W]
// Output per step: [N, OC, OH, OW]
// Weight: [OC, IC*KH*KW] (filter-major, im2col order), bias: [OC].
//
// Each step dispatches on its exact batch-wide input nonzero count, with
// the inference crossover (kDefaultSparseCrossover).  At or below it the
// forward pass and the weight gradient walk per-sample spike index lists
// (tensor/spike_conv.h) — the event-driven compute-skipping the
// sparsity-aware accelerator performs in hardware; above it they run
// im2col + GEMM.  The input gradient is built from the nonzero output
// gradients at every density.  A step whose input is bitwise the previous
// step's (direct coding feeds one image at every step) reuses that step's
// output, and its backward reuses the image's im2col columns.  Every path
// gives the same bits (DESIGN.md "Training kernels").
#pragma once

#include <vector>

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
  const Tensor& forward_step(const Tensor& input) override;
  const Tensor& backward_step(const Tensor& grad_output) override;
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
  // Step buffer slots: the output; the input gradient; the [K, OC] weight
  // copy the sparse scatter reads and the tap-major [OC, K] copy the input
  // gradient reads, each refreshed once per window; the backward im2col
  // columns; the sparse dW's [N, spatial, OC] output gradient and [K, OC]
  // weight gradient; then the window's distinct step inputs, the j-th in
  // slot kInput + j.
  enum Slot : std::size_t {
    kOut,
    kGradIn,
    kWeightT,
    kWeightR,
    kCols,
    kGoT,
    kGradT,
    kInput
  };

  ConvGeom geom_for(const Shape& input) const;
  // Fills idx_/count_ with the per-sample index lists of `x` and returns
  // whether its batch-wide density takes the sparse kernels.
  bool index_inputs(const ConvGeom& g, const Tensor& x);
  // One backward step; computes dL/d(input) only when `input_grad`.
  void backward(const Tensor& grad_output, bool input_grad);
  // Adds one step's weight gradient, from the index lists in idx_/count_,
  // to the [K, OC] transposed gradient gt.
  void sparse_weight_grad(const ConvGeom& g, const Tensor& x,
                          const Tensor& grad_output, float* gt);

  Conv2dConfig config_;
  Param weight_;
  Param bias_;
  bool training_ = false;
  bool weight_t_stale_ = true;   // kWeightT is refreshed at the first scatter
  bool weight_r_stale_ = true;   // kWeightR, at the first input gradient
  // The window's distinct step inputs live in slots kInput..kInput +
  // num_inputs_ - 1, oldest first (training keeps the window's, a
  // forward-only window just the latest); input_sparse_[j] is the kernel
  // input j took.  step_inputs_ holds, per forward step, the input it read
  // (training only).
  std::size_t num_inputs_ = 0;
  std::vector<bool> input_sparse_;
  std::vector<std::size_t> step_inputs_;
  std::vector<std::int32_t> idx_;     // per-sample index lists of one step
  std::vector<std::int64_t> count_;   // their lengths
  // While cols_valid_, kCols holds the im2col columns of every sample of
  // the newest input.
  bool cols_valid_ = false;
};

}  // namespace spiketune::snn
