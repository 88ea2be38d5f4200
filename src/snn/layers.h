// Layer interface for BPTT-trained spiking networks.
//
// A SpikingNetwork processes a window of T timesteps.  Each layer exposes a
// per-timestep forward (caching what its backward needs) and a per-timestep
// backward that is invoked in reverse step order.  Stateful layers (LIF)
// additionally carry membrane state across forward steps and a membrane
// gradient across backward steps; `begin_window` / `begin_backward` reset
// those.  All gradients accumulate into Param::grad until `zero_grad`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace spiketune::snn {

/// A learnable parameter: value plus accumulated gradient.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
  std::int64_t numel() const { return value.numel(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Resets all per-window state and caches.  `training` enables caching for
  /// backward; inference windows skip it to save memory.
  virtual void begin_window(std::int64_t batch_size, bool training) = 0;

  /// One timestep forward.  `input` layout is layer-specific (see each
  /// layer); returns the step output.
  virtual Tensor forward_step(const Tensor& input) = 0;

  /// Resets BPTT carry state; called once before the reverse sweep.
  virtual void begin_backward() {}

  /// One timestep backward, invoked in reverse order of forward_step calls.
  /// Accepts dL/d(output of that step), returns dL/d(input of that step).
  virtual Tensor backward_step(const Tensor& grad_output) = 0;

  /// backward_step for the network's first layer, whose input gradient
  /// nothing reads: the same parameter gradients and BPTT carry, without
  /// dL/d(input).  The default runs backward_step and drops its result;
  /// layers with a costly input gradient skip computing it.
  virtual void backward_step_params(const Tensor& grad_output) {
    backward_step(grad_output);
  }

  /// Learnable parameters (empty for stateless/pool layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Output shape for a given per-sample input shape (no batch dim).
  virtual Shape output_shape(const Shape& input) const = 0;

  /// True for layers that emit binary spikes (LIF); used by spike stats and
  /// the hardware workload extractor.
  virtual bool spiking() const { return false; }

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }
};

/// [N, C, H, W] -> [N, C*H*W]; contiguity makes this a reshape.
class Flatten final : public Layer {
 public:
  void begin_window(std::int64_t, bool) override { shapes_.clear(); }
  Tensor forward_step(const Tensor& input) override;
  Tensor backward_step(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<Shape> shapes_;  // stack of input shapes per step
};

}  // namespace spiketune::snn
