#include "snn/rlif.h"

#include "core/error.h"
#include "tensor/gemm.h"

namespace spiketune::snn {

Rlif::Rlif(RlifConfig config)
    : config_(config),
      recurrent_("rlif.recurrent", [&] {
        ST_REQUIRE(config.features > 0, "rlif features must be positive");
        Rng rng(config.weight_seed);
        // Small recurrent init: strong recurrence at init destabilizes the
        // membrane dynamics, so scale well below the feed-forward bound.
        return Tensor::kaiming_uniform(
            Shape{config.features, config.features}, rng,
            config.features * 4);
      }()) {
  ST_REQUIRE(config_.lif.beta >= 0.0f && config_.lif.beta <= 1.0f,
             "beta must be in [0, 1]");
  ST_REQUIRE(config_.lif.threshold > 0.0f, "threshold must be positive");
}

void Rlif::begin_window(std::int64_t, bool training) {
  training_ = training;
  has_state_ = false;
  cache_.clear();
  has_carry_ = false;
}

const Tensor& Rlif::forward_step(const Tensor& input) {
  const Shape& s = input.shape();
  ST_REQUIRE(s.rank() == 2 && s[1] == config_.features,
             "rlif expects [N, features], got " + s.str());
  const std::int64_t batch = s[0];
  const std::int64_t n = config_.features;
  const float beta = config_.lif.beta;
  const float theta = config_.lif.threshold;

  Tensor u_pre = input;
  if (has_state_) {
    ST_REQUIRE(membrane_.same_shape(input),
               "rlif input shape changed mid-window");
    float* up = u_pre.data();
    const float* um = membrane_.data();
    for (std::int64_t i = 0, total = u_pre.numel(); i < total; ++i)
      up[i] += beta * um[i];
    // Recurrent current: + s[t-1] * V^T.
    gemm_nt(batch, n, n, 1.0f, prev_spikes_.data(),
            recurrent_.value.data(), 1.0f, u_pre.data());
  }

  Tensor spikes(u_pre.shape());
  Tensor u_post = u_pre;
  {
    const float* up = u_pre.data();
    float* sp = spikes.data();
    float* upost = u_post.data();
    for (std::int64_t i = 0, total = u_pre.numel(); i < total; ++i) {
      const bool fire = up[i] > theta;
      sp[i] = fire ? 1.0f : 0.0f;
      if (fire) upost[i] -= theta;
    }
  }

  if (training_) {
    StepCache cache;
    cache.u_pre = u_pre;
    cache.had_prev = has_state_;
    if (has_state_) cache.prev_spikes = prev_spikes_;
    cache_.push_back(std::move(cache));
  }
  membrane_ = std::move(u_post);
  prev_spikes_ = std::move(spikes);
  has_state_ = true;
  return prev_spikes_;
}

void Rlif::begin_backward() { has_carry_ = false; }

const Tensor& Rlif::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(!cache_.empty(), "rlif backward without cached forward step");
  StepCache cache = std::move(cache_.back());
  cache_.pop_back();
  ST_REQUIRE(grad_output.same_shape(cache.u_pre),
             "rlif backward gradient shape mismatch");

  const std::int64_t batch = cache.u_pre.shape()[0];
  const std::int64_t n = config_.features;
  const float beta = config_.lif.beta;
  const float theta = config_.lif.threshold;
  const Surrogate sg = config_.lif.surrogate;
  const bool detach = config_.lif.detach_reset;

  // Total spike gradient: downstream + recurrent path from the next step.
  Tensor grad_input(cache.u_pre.shape());
  {
    float* gi = grad_input.data();
    const float* go = grad_output.data();
    const float* gs_rec = has_carry_ ? grad_spike_carry_.data() : nullptr;
    const float* carry = has_carry_ ? grad_carry_.data() : nullptr;
    const float* up = cache.u_pre.data();
    for (std::int64_t i = 0, total = cache.u_pre.numel(); i < total; ++i) {
      const float c = carry ? carry[i] : 0.0f;
      const float g_s = go[i] + (gs_rec ? gs_rec[i] : 0.0f);
      const float spike_path = g_s - (detach ? 0.0f : theta * c);
      gi[i] = c + spike_path * sg.grad(up[i] - theta);
    }
  }

  // Recurrent weight gradient and spike-carry for step t-1.
  if (cache.had_prev) {
    // gV[j, i] += sum_b g_upre[b, j] * s_prev[b, i]
    gemm_tn(n, n, batch, 1.0f, grad_input.data(), cache.prev_spikes.data(),
            1.0f, recurrent_.grad.data());
    // dL/ds[t-1] via recurrence: g_upre * V.
    grad_spike_carry_ = Tensor(cache.u_pre.shape());
    gemm(batch, n, n, 1.0f, grad_input.data(), recurrent_.value.data(),
         0.0f, grad_spike_carry_.data());
  } else {
    grad_spike_carry_ = Tensor(cache.u_pre.shape());  // zeros
  }

  // Membrane carry: c[t-1] = beta * dL/du_pre[t].
  grad_carry_ = grad_input;
  {
    float* gc = grad_carry_.data();
    for (std::int64_t i = 0, total = grad_carry_.numel(); i < total; ++i)
      gc[i] *= beta;
  }
  has_carry_ = true;
  grad_input_ = std::move(grad_input);
  return grad_input_;
}

Shape Rlif::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 1 && input[0] == config_.features,
             "rlif output_shape expects [features]");
  return input;
}

}  // namespace spiketune::snn
