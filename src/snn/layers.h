// Layer interface for BPTT-trained spiking networks.
//
// A SpikingNetwork processes a window of T timesteps.  Each layer exposes a
// per-timestep forward (caching what its backward needs) and a per-timestep
// backward that is invoked in reverse step order.  Stateful layers (LIF)
// additionally carry membrane state across forward steps and a membrane
// gradient across backward steps; `begin_window` / `begin_backward` reset
// those.  All gradients accumulate into Param::grad until `zero_grad`.
//
// Step buffers.  forward_step and backward_step return a reference to a
// tensor the layer owns, not a fresh tensor: the reference, and the values
// behind it, stay valid until that layer's next forward_step,
// backward_step, begin_window or park_buffers call, and no longer.  A
// caller that needs the values past that point copies them.  A layer keeps
// its step outputs, input gradients and per-step caches in slots indexed
// by step, so each window rewrites the storage of the last one instead of
// allocating.
#pragma once

#include <cstdint>
#include <deque>
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

/// The float buffers one layer writes in a window, by slot.  A slot keeps
/// its storage from get() to get() while the size fits.  Between windows
/// of a network the storage is parked in a free list shared by every layer
/// in the process, and the next window takes it back by exact size.  A
/// warm process thus allocates nothing per window, and networks that take
/// turns share one window's worth of resident buffers.  Parked storage is
/// freed when two windows in a row have ended without taking it back, and
/// when the StepBuffers that parked it is destroyed, so the free list holds
/// only the sizes the live networks' recent windows used (DESIGN.md §10
/// "Training kernels").
class StepBuffers {
 public:
  StepBuffers() = default;
  StepBuffers(const StepBuffers&) = delete;
  StepBuffers& operator=(const StepBuffers&) = delete;
  ~StepBuffers();

  /// Slot `i` shaped `shape`.  Its values are unspecified: whatever the
  /// storage last held.  A caller that reads an element before writing it
  /// fills first.  References to other slots stay valid.
  Tensor& get(std::size_t i, const Shape& shape);
  /// Slot `i` as the last get() left it.
  const Tensor& at(std::size_t i) const { return slots_.at(i); }
  /// Moves every slot's storage to the shared free list.
  void park();

  /// Counts the end of a window and frees the parked storage that neither
  /// this window nor the one before it took back.  SpikingNetwork calls it
  /// once per window, before it parks the window's buffers.
  static void end_window();
  /// Floats held in the shared free list.
  static std::int64_t parked_numel();

 private:
  std::deque<Tensor> slots_;  // deque: growing keeps references valid
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Resets all per-window state and caches.  `training` enables caching for
  /// backward; inference windows skip it to save memory.
  virtual void begin_window(std::int64_t batch_size, bool training) = 0;

  /// One timestep forward.  `input` layout is layer-specific (see each
  /// layer); returns the step output in a layer-owned buffer (see the
  /// file comment for how long it lives).
  virtual const Tensor& forward_step(const Tensor& input) = 0;

  /// Resets BPTT carry state; called once before the reverse sweep.
  virtual void begin_backward() {}

  /// One timestep backward, invoked in reverse order of forward_step calls.
  /// Accepts dL/d(output of that step), returns dL/d(input of that step)
  /// in a layer-owned buffer, as forward_step does.
  virtual const Tensor& backward_step(const Tensor& grad_output) = 0;

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

  /// Parks the step buffers once a window is over and nothing reads them:
  /// SpikingNetwork calls it after backward() and after a forward-only
  /// window.  The next window takes storage back from the free list.
  void park_buffers() { buffers_.park(); }

 protected:
  StepBuffers buffers_;
};

/// [N, C, H, W] -> [N, C*H*W]; contiguity makes this a copy into the
/// output buffer.
class Flatten final : public Layer {
 public:
  void begin_window(std::int64_t, bool) override { steps_ = 0; }
  const Tensor& forward_step(const Tensor& input) override;
  const Tensor& backward_step(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<Shape> shapes_;  // input shape per step, by step
  std::size_t steps_ = 0;      // forward steps not yet run backward
};

}  // namespace spiketune::snn
