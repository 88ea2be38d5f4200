// Leaky integrate-and-fire neuron layer (paper Eq. 1-2).
//
// Per-timestep dynamics with reset-by-subtraction, matching snnTorch's
// `Leaky` neuron and the paper's formulation:
//
//   u_pre[t]  = beta * u_post[t-1] + I[t]        (decay + input current)
//   s[t]      = H(u_pre[t] - theta)              (Heaviside spike)
//   u_post[t] = u_pre[t] - s[t] * theta          (subtractive reset)
//
// BPTT backward (derived by differentiating the recurrence; c[t] denotes
// dL/du_post[t] carried backwards, g_s[t] the gradient arriving from the
// next layer at step t, and sg' the surrogate derivative at u_pre - theta):
//
//   dL/du_pre[t] = c[t] + (g_s[t] - theta * c[t]) * sg'(u_pre[t] - theta)
//   dL/dI[t]     = dL/du_pre[t]                   (to the upstream layer)
//   c[t-1]       = beta * dL/du_pre[t]
//
// With `detach_reset` the reset path is excluded from the gradient (the
// `- theta * c[t]` term is dropped), mirroring snnTorch's option.
#pragma once

#include "snn/layers.h"
#include "snn/surrogate.h"

namespace spiketune::snn {

struct LifConfig {
  float beta = 0.25f;       // membrane leak (paper default)
  float threshold = 1.0f;   // firing threshold theta (paper default)
  Surrogate surrogate = Surrogate::fast_sigmoid(25.0f);
  bool detach_reset = false;
};

class Lif final : public Layer {
 public:
  explicit Lif(LifConfig config);

  void begin_window(std::int64_t batch_size, bool training) override;
  const Tensor& forward_step(const Tensor& input) override;
  void begin_backward() override;
  const Tensor& backward_step(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input) const override { return input; }
  bool spiking() const override { return true; }
  std::string name() const override { return "lif"; }

  const LifConfig& config() const { return config_; }
  /// Spikes emitted across all forward steps since begin_window.
  std::int64_t window_spike_count() const { return window_spikes_; }
  /// Output elements produced across all forward steps since begin_window.
  std::int64_t window_element_count() const { return window_elements_; }

 private:
  // Step buffer slots: the returned spikes or input gradient; the state
  // updated in place, u_post of the latest step going forward and c[t]
  // on the reverse sweep; then u_pre of step t in slot kPre + t (training
  // only).
  enum Slot : std::size_t { kOut, kState, kPre };

  LifConfig config_;
  bool training_ = false;
  bool has_membrane_ = false;
  std::size_t cached_steps_ = 0;    // u_pre slots not yet run backward
  bool has_grad_carry_ = false;
  std::int64_t window_spikes_ = 0;
  std::int64_t window_elements_ = 0;
};

}  // namespace spiketune::snn
