// SpikingNetwork: a feed-forward stack of layers run over a time window.
//
// forward() presents T spike (or analog) tensors step by step, accumulates
// the output layer's spike counts, and optionally records per-layer activity
// for the hardware workload extractor.  backward() replays the window in
// reverse (BPTT); the gradient of the loss w.r.t. the per-step output spikes
// is the gradient w.r.t. the spike-count readout (counts are a plain sum).
#pragma once

#include <memory>
#include <vector>

#include "snn/layers.h"
#include "snn/spike_stats.h"

namespace spiketune::snn {

/// What a forward window should compute beyond the spike counts.  The
/// defaults describe pure inference: no gradient caches, no stat passes,
/// no per-step tallies.
struct ForwardOptions {
  bool training = false;      // cache activations for a later backward()
  bool record_stats = false;  // count nonzeros at every layer boundary
  /// Additionally keep the per-step, per-layer nonzero tally
  /// (ForwardResult::step_input_nonzeros).  Only the cycle-level hardware
  /// simulator consumes it, so it is opt-in rather than a side effect of
  /// record_stats; enabling it implies the same counting pass.
  bool record_step_nonzeros = false;
};

struct ForwardResult {
  Tensor spike_counts;  // [N, out_features] — spikes summed over steps
  SpikeRecord stats;    // populated when record_stats was requested
  /// step_input_nonzeros[t][l]: nonzero inputs entering layer l at step t
  /// (whole batch); drives the cycle-level hardware simulator.  Shaped
  /// exactly like hw::SpikeTrace.  Empty unless record_step_nonzeros.
  std::vector<std::vector<std::int64_t>> step_input_nonzeros;
  std::int64_t timesteps = 0;
};

class SpikingNetwork {
 public:
  SpikingNetwork() = default;

  /// Appends a layer (builder style; returns a typed reference).
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// Runs the window.  The options select training caches and stat passes
  /// (stats cost one pass over the activations, so sweeps enable them only
  /// for evaluation windows); the default is pure inference.
  ForwardResult forward(const std::vector<Tensor>& step_inputs,
                        const ForwardOptions& options = {});

  /// BPTT: `grad_counts` is dL/d(spike_counts), shape [N, out_features].
  /// Must follow a forward() with training == true.
  void backward(const Tensor& grad_counts);

  std::vector<Param*> params();
  void zero_grad();
  std::int64_t num_parameters();

  /// Per-sample output shape for a per-sample input shape; also validates
  /// layer compatibility.
  Shape output_shape(Shape per_sample_input) const;

  /// Fresh SpikeRecord matching this topology.
  SpikeRecord make_record() const;

 private:
  // Ends the window for the shared free list and parks every layer's step
  // buffers there (StepBuffers).
  void park_window();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::int64_t last_window_steps_ = 0;
};

}  // namespace spiketune::snn
