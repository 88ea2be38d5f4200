#include "snn/lif.h"

#include <atomic>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace spiketune::snn {

namespace {
// Minimum elements per slice for the elementwise membrane loops; below
// this the fork-join handshake costs more than the arithmetic.
constexpr std::int64_t kElemGrain = 2048;

// One forward step over elements [b, e): u_pre = I (+ beta * u_post), the
// Heaviside spike, the subtractive reset written back into the membrane,
// and u_pre into the backward cache when `kCache`.  Returns the spike
// count.  Per element these are the float operations of the recurrence in
// lif.h, in that order.
template <bool kCarry, bool kCache>
std::int64_t lif_forward(const float* __restrict in, float* __restrict m,
                         float* __restrict spikes, float* __restrict pre,
                         std::int64_t b, std::int64_t e, float beta,
                         float theta) {
  std::int64_t fired = 0;
  for (std::int64_t i = b; i < e; ++i) {
    float u = in[i];
    if constexpr (kCarry) u += beta * m[i];
    if constexpr (kCache) pre[i] = u;
    const bool fire = u > theta;
    spikes[i] = fire ? 1.0f : 0.0f;
    m[i] = fire ? u - theta : u;
    fired += fire;
  }
  return fired;
}

// One backward step over elements [b, e): dL/du_pre from the incoming
// spike gradient and the carry c[t], then c[t-1] = beta * dL/du_pre written
// over the carry.  Without `kCarry` (the last step) c[t] is 0.  Each
// multiply-add is one statement, as in the unfused loops, so FMA
// contraction fuses exactly what it fused there; the surrogate kind is a
// template argument because a per-element switch let GCC move the
// multiply away from its add and round them apart.
template <Surrogate::Kind K, bool kCarry, bool kDetach>
void lif_backward(const float* __restrict go, const float* __restrict pre,
                  float* __restrict gi, float* __restrict carry,
                  std::int64_t b, std::int64_t e, float beta, float theta,
                  float scale) {
  for (std::int64_t i = b; i < e; ++i) {
    const float c = kCarry ? carry[i] : 0.0f;
    float spike_path = go[i];
    if constexpr (!kDetach) spike_path = go[i] - theta * c;
    const float sg = Surrogate::grad_of<K>(pre[i] - theta, scale);
    const float g = c + spike_path * sg;
    gi[i] = g;
    carry[i] = g * beta;
  }
}

template <Surrogate::Kind K>
void lif_backward_kind(bool carry, bool detach, const float* go,
                       const float* pre, float* gi, float* c, std::int64_t b,
                       std::int64_t e, float beta, float theta, float scale) {
  if (carry) {
    if (detach)
      lif_backward<K, true, true>(go, pre, gi, c, b, e, beta, theta, scale);
    else
      lif_backward<K, true, false>(go, pre, gi, c, b, e, beta, theta, scale);
  } else if (detach) {
    lif_backward<K, false, true>(go, pre, gi, c, b, e, beta, theta, scale);
  } else {
    lif_backward<K, false, false>(go, pre, gi, c, b, e, beta, theta, scale);
  }
}

}  // namespace

Lif::Lif(LifConfig config) : config_(config) {
  ST_REQUIRE(config_.beta >= 0.0f && config_.beta <= 1.0f,
             "beta must be in [0, 1]");
  ST_REQUIRE(config_.threshold > 0.0f, "threshold must be positive");
}

void Lif::begin_window(std::int64_t, bool training) {
  training_ = training;
  has_membrane_ = false;
  cached_steps_ = 0;
  has_grad_carry_ = false;
  window_spikes_ = 0;
  window_elements_ = 0;
}

const Tensor& Lif::forward_step(const Tensor& input) {
  ST_PROF_SCOPE("lif.fwd");
  const float beta = config_.beta;
  const float theta = config_.threshold;
  if (has_membrane_)
    ST_REQUIRE(buffers_.at(kState).same_shape(input),
               "LIF input shape changed mid-window");
  // Every buffer below is written in full before it is read: the first
  // step of a window writes the membrane without reading it.
  float* m = buffers_.get(kState, input.shape()).data();
  float* pre = nullptr;
  if (training_)
    pre = buffers_.get(kPre + cached_steps_++, input.shape()).data();
  Tensor& spikes = buffers_.get(kOut, input.shape());

  const float* in = input.data();
  float* sp = spikes.data();
  const bool carry = has_membrane_;
  // Disjoint elementwise writes; the spike tally is an integer sum, so
  // combining per-slice counts is exact for any slicing.
  std::atomic<std::int64_t> fired{0};
  parallel_for(0, input.numel(), kElemGrain,
               [&](std::int64_t b, std::int64_t e) {
                 std::int64_t local = 0;
                 if (carry)
                   local = pre ? lif_forward<true, true>(in, m, sp, pre, b, e,
                                                         beta, theta)
                               : lif_forward<true, false>(in, m, sp, pre, b,
                                                          e, beta, theta);
                 else
                   local = pre ? lif_forward<false, true>(in, m, sp, pre, b,
                                                          e, beta, theta)
                               : lif_forward<false, false>(in, m, sp, pre, b,
                                                           e, beta, theta);
                 fired.fetch_add(local, std::memory_order_relaxed);
               });
  const std::int64_t n_fired = fired.load(std::memory_order_relaxed);
  window_spikes_ += n_fired;
  window_elements_ += input.numel();
  if (obs::metrics_enabled()) {
    static const obs::MetricId kSpikes = obs::counter("lif.spikes");
    obs::add(kSpikes, n_fired);
  }
  has_membrane_ = true;
  return spikes;
}

void Lif::begin_backward() { has_grad_carry_ = false; }

const Tensor& Lif::backward_step(const Tensor& grad_output) {
  ST_PROF_SCOPE("lif.bwd");
  ST_REQUIRE(cached_steps_ > 0,
             "LIF backward without matching cached forward step");
  const Tensor& u_pre = buffers_.at(kPre + --cached_steps_);
  ST_REQUIRE(grad_output.same_shape(u_pre),
             "LIF backward gradient shape mismatch");

  const float beta = config_.beta;
  const float theta = config_.threshold;
  const Surrogate sg = config_.surrogate;
  const bool detach = config_.detach_reset;
  const bool carry = has_grad_carry_;

  // The membrane is dead once the reverse sweep starts, so the carry
  // takes its slot; the last step writes the carry before reading it.
  float* c = buffers_.get(kState, u_pre.shape()).data();
  Tensor& grad_input = buffers_.get(kOut, u_pre.shape());
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  const float* up = u_pre.data();
  parallel_for(0, u_pre.numel(), kElemGrain,
               [&](std::int64_t b, std::int64_t e) {
                 using Kind = Surrogate::Kind;
                 const float scale = sg.scale();
                 switch (sg.kind()) {
                   case Kind::kArctan:
                     lif_backward_kind<Kind::kArctan>(
                         carry, detach, go, up, gi, c, b, e, beta, theta,
                         scale);
                     break;
                   case Kind::kFastSigmoid:
                     lif_backward_kind<Kind::kFastSigmoid>(
                         carry, detach, go, up, gi, c, b, e, beta, theta,
                         scale);
                     break;
                   case Kind::kSigmoid:
                     lif_backward_kind<Kind::kSigmoid>(
                         carry, detach, go, up, gi, c, b, e, beta, theta,
                         scale);
                     break;
                   case Kind::kTriangular:
                     lif_backward_kind<Kind::kTriangular>(
                         carry, detach, go, up, gi, c, b, e, beta, theta,
                         scale);
                     break;
                   case Kind::kBoxcar:
                     lif_backward_kind<Kind::kBoxcar>(
                         carry, detach, go, up, gi, c, b, e, beta, theta,
                         scale);
                     break;
                   case Kind::kStraightThrough:
                     lif_backward_kind<Kind::kStraightThrough>(
                         carry, detach, go, up, gi, c, b, e, beta, theta,
                         scale);
                     break;
                 }
               });
  has_grad_carry_ = true;
  return grad_input;
}

}  // namespace spiketune::snn
