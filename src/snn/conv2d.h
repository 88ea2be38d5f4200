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
// im2col + GEMM.  A step whose input is bitwise the previous step's (direct
// coding feeds one image at every step) reuses that step's output, and its
// backward reuses the image's im2col columns.  Every path gives the same
// bits (DESIGN.md "Training kernels").
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
  // A distinct step input of the window and the kernel its steps take.
  struct StepInput {
    Tensor x;
    bool sparse = false;
  };

  ConvGeom geom_for(const Shape& input) const;
  // Fills idx_/count_ with the per-sample index lists of `x` and returns
  // whether its batch-wide density takes the sparse kernels.
  bool index_inputs(const ConvGeom& g, const Tensor& x);
  // Frees the scratch that lives only within a window.
  void release_window_buffers();
  // One backward step; computes dL/d(input) only when `input_grad`.
  Tensor backward(const Tensor& grad_output, bool input_grad);
  // Weight gradient of one step from the index lists in idx_/count_.
  void sparse_weight_grad(const ConvGeom& g, const Tensor& x,
                          const Tensor& grad_output);

  Conv2dConfig config_;
  Param weight_;
  Param bias_;
  bool training_ = false;
  Tensor weight_t_;              // [K, OC] copy of the weight (sparse scatter)
  bool weight_t_stale_ = true;   // refreshed at the window's first scatter
  // Distinct step inputs, oldest first (training keeps the window's, a
  // forward-only window just the latest), and per forward step the entry
  // it read (training only).
  std::vector<StepInput> inputs_;
  std::vector<std::size_t> step_inputs_;
  Tensor last_output_;           // output of the latest forward step
  std::vector<std::int32_t> idx_;     // per-sample index lists of one step
  std::vector<std::int64_t> count_;   // their lengths
  // Backward im2col scratch; while cols_valid_, the columns of every
  // sample of the newest inputs_ entry.
  std::vector<float> cols_;
  bool cols_valid_ = false;
  std::vector<float> go_t_;      // sparse dW: [N, spatial, OC] output grad
  std::vector<float> grad_t_;    // sparse dW: [K, OC] weight gradient
};

}  // namespace spiketune::snn
