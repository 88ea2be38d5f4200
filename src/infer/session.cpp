#include "infer/session.h"

#include <algorithm>
#include <cstddef>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/spike_conv.h"

namespace spiketune::infer {

namespace {

// Same nonzero predicate as ops::count_nonzero.
std::int64_t nonzeros(const float* x, std::int64_t n) {
  std::int64_t c = 0;
  for (std::int64_t i = 0; i < n; ++i) c += (x[i] != 0.0f);
  return c;
}

// --- Per-sample kernels ------------------------------------------------------
//
// Every kernel below works on ONE sample's planes.  The session runs them
// back to back for a sample inside one participant's slice, so a block's
// pre-activation lives in that participant's scratch and stays in cache.
// The synaptic kernels leave it bias-free and channel-last ([spatial, OC]
// for a conv); the block epilogue adds the bias.  The per-element
// arithmetic is the training layers'; DESIGN.md §10 has the bit-identity
// argument.

// Conv2d, sparse: scatter each nonzero input pixel through the [K, OC]
// transposed weights into the zeroed [spatial, OC] pre-activation
// (tensor/spike_conv.h) — bit-identical to the dense kernel.
void conv_sparse(const CompiledLayer& l, const float* x,
                 const std::int32_t* idx, std::int64_t cnt, float* pre) {
  ST_PROF_SCOPE("infer.conv_sparse");
  conv_scatter(l.geom, l.out_shape[0], l.weight_t.data(), x, idx, cnt, pre);
}

// Conv2d, dense: im2col, then gemm_tn of the [K, spatial] columns against
// the [K, OC] transposed weights, which writes [spatial, OC] directly.  Each
// element gets the same ascending-k multiply-adds as the gemm(W, cols) of
// snn::Conv2d::forward_step (tensor/gemm.h).
void conv_dense(const CompiledLayer& l, const float* x, float* cols,
                float* pre) {
  ST_PROF_SCOPE("infer.conv_dense");
  const ConvGeom& g = l.geom;
  im2col(g, x, cols);
  gemm_tn(g.col_cols(), l.out_shape[0], g.col_rows(), 1.0f, cols,
          l.weight_t.data(), 0.0f, pre);
}

// Linear, sparse: fold each nonzero input through its [in, out] weight row
// in ascending input order — the dense GEMM's k order.
void linear_sparse(const CompiledLayer& l, const float* x,
                   const std::int32_t* idx, std::int64_t cnt, float* pre) {
  ST_PROF_SCOPE("infer.linear_sparse");
  const std::int64_t out_f = l.out_shape[0];
  const float* wt = l.weight_t.data();
  std::fill(pre, pre + out_f, 0.0f);
  for (std::int64_t e = 0; e < cnt; ++e) {
    const std::int64_t f = idx[e];
    const float v = x[f];
    const float* wrow = wt + f * out_f;
    for (std::int64_t j = 0; j < out_f; ++j) pre[j] += v * wrow[j];
  }
}

// Linear, dense: the gemm_nt of snn::Linear::forward_step.  The one
// batch-wide kernel — a GEMM earns its speed from reusing weights across
// rows — so it runs before the per-sample pass, which then reads row s of
// `pre`.
void linear_dense(const CompiledLayer& l, const float* in, std::int64_t n,
                  float* pre) {
  ST_PROF_SCOPE("infer.linear_dense");
  gemm_nt(n, l.out_shape[0], l.in_elems, 1.0f, in, l.weight.data(), 0.0f,
          pre);
}

// Nonzeros of the biased pre-activation — the synaptic layer's output on
// the dense path — for the SpikeRecord.  Same sums as the epilogue's.
std::int64_t biased_nonzeros(const float* pre, const Tensor& bias,
                             std::int64_t positions, std::int64_t ch) {
  if (bias.numel() == 0) return nonzeros(pre, positions * ch);
  const float* b = bias.data();
  std::int64_t c = 0;
  for (std::int64_t p = 0; p < positions; ++p, pre += ch)
    for (std::int64_t k = 0; k < ch; ++k) c += (pre[k] + b[k] != 0.0f);
  return c;
}

// --- The block epilogue ------------------------------------------------------
//
// One pass over a sample's channel-last pre-activation does, per element,
// the synaptic layer's bias add and the LIF recurrence of
// snn::Lif::forward_step on the stream's membrane plane (held in the same
// [rows, cols, channels] order), and folds each spike into its pool window.
// Each finished pooled row is stored straight into the block's [channels,
// rows / k, cols / k] output — the next block's input plane.  Positions the
// pool floors away still get LIF.  A block without a pool is the same pass
// with k = 1.
//
// Per element the float operations are the training layers', in their
// order: pre + bias, then + beta * m (skipped on a fresh stream's first
// step, the dense layer's has_membrane_ gate), then the subtract-theta
// reset.  The pool sees 0/1 spikes, so its window arithmetic is exact and
// follows snn::MaxPool2d / snn::AvgPool2d: taps in ascending (dy, dx) order,
// the max seeded by the first tap and replaced only on strict >, the average
// the first tap (0 + s == s for s in {0, 1}) plus the rest, times 1/k².

struct LifParams {
  float beta;
  float theta;
  bool first_step;
};

template <bool kBias>
inline bool lif_element(const float* __restrict pre,
                        const float* __restrict bias, float* __restrict m,
                        std::int64_t i, std::int64_t c, LifParams lp) {
  float u = pre[i];
  if constexpr (kBias) u += bias[c];
  if (!lp.first_step) u += lp.beta * m[i];
  const bool fire = u > lp.theta;
  if (fire) u -= lp.theta;
  m[i] = u;
  return fire;
}

// LIF over `n` positions whose spikes no pool window takes.
template <bool kBias>
std::int32_t lif_dropped(const float* __restrict pre,
                         const float* __restrict bias, float* __restrict m,
                         std::int64_t n, std::int64_t ch, LifParams lp) {
  std::int32_t fired = 0;
  for (std::int64_t q = 0; q < n; ++q)
    for (std::int64_t c = 0; c < ch; ++c)
      fired += lif_element<kBias>(pre, bias, m, q * ch + c, c, lp);
  return fired;
}

// The k input rows of one pooled row (`pre` and `m` point at the first
// row's first position; rows are `w` positions apart): LIF on every tap of
// each of the `pw` windows, pooled into acc ([pw, ch], unscaled).  One
// channel loop per tap keeps each loop a plain vectorizable stream.
template <bool kAvg, bool kBias>
std::int32_t lif_pool_windows(const float* __restrict pre,
                              const float* __restrict bias,
                              float* __restrict m, float* __restrict acc,
                              std::int64_t w, std::int64_t pw, std::int64_t ch,
                              std::int64_t k, LifParams lp) {
  std::int32_t fired = 0;
  for (std::int64_t px = 0; px < pw; ++px) {
    float* __restrict a = acc + px * ch;
    for (std::int64_t dy = 0; dy < k; ++dy)
      for (std::int64_t dx = 0; dx < k; ++dx) {
        const std::int64_t o = (px * k + dy * w + dx) * ch;
        const float* __restrict p = pre + o;
        float* __restrict mp = m + o;
        std::int32_t f = 0;
        if (dy == 0 && dx == 0) {
          for (std::int64_t c = 0; c < ch; ++c) {
            const bool fire = lif_element<kBias>(p, bias, mp, c, c, lp);
            f += fire;
            a[c] = fire ? 1.0f : 0.0f;
          }
        } else {
          for (std::int64_t c = 0; c < ch; ++c) {
            const bool fire = lif_element<kBias>(p, bias, mp, c, c, lp);
            f += fire;
            const float s = fire ? 1.0f : 0.0f;
            if constexpr (kAvg)
              a[c] += s;
            else
              a[c] = s > a[c] ? s : a[c];
          }
        }
        fired += f;
      }
  }
  return fired;
}

template <bool kAvg, bool kBias>
std::int64_t lif_pool_rows(const LayerBlock& blk, const float* pre,
                           const float* bias, LifParams lp, float* m,
                           float* acc, float* dst) {
  const std::int64_t ch = blk.channels;
  const std::int64_t k = blk.pool;
  const std::int64_t w = blk.cols;
  const std::int64_t ph = blk.rows / k;
  const std::int64_t pw = w / k;
  const std::int64_t plane = ph * pw;
  const std::int64_t row = w * ch;  // floats per input row
  const float inv = 1.0f / static_cast<float>(k * k);
  std::int64_t fired = 0;
  for (std::int64_t py = 0; py < ph; ++py) {
    const std::int64_t top = py * k * row;
    fired += lif_pool_windows<kAvg, kBias>(pre + top, bias, m + top, acc, w,
                                           pw, ch, k, lp);
    for (std::int64_t dy = 0; dy < k; ++dy) {  // columns floored away
      const std::int64_t tail = top + dy * row + pw * k * ch;
      fired += lif_dropped<kBias>(pre + tail, bias, m + tail, w - pw * k, ch,
                                  lp);
    }
    for (std::int64_t c = 0; c < ch; ++c) {
      float* o = dst + c * plane + py * pw;
      for (std::int64_t px = 0; px < pw; ++px)
        o[px] = kAvg ? acc[px * ch + c] * inv : acc[px * ch + c];
    }
  }
  const std::int64_t below = ph * k * row;  // rows floored away
  fired += lif_dropped<kBias>(pre + below, bias, m + below,
                              (blk.rows - ph * k) * w, ch, lp);
  return fired;
}

// Runs the epilogue of `blk` for one sample and returns its spike count.
std::int64_t lif_pool(const LayerBlock& blk, const CompiledLayer& head,
                      const CompiledLayer& lif, const float* pre,
                      bool first_step, float* m, float* acc, float* dst) {
  ST_PROF_SCOPE("infer.lif_pool");
  const float* bias = head.bias.numel() > 0 ? head.bias.data() : nullptr;
  const LifParams lp{lif.beta, lif.threshold, first_step};
  if (blk.avg_pool)
    return bias != nullptr
               ? lif_pool_rows<true, true>(blk, pre, bias, lp, m, acc, dst)
               : lif_pool_rows<true, false>(blk, pre, bias, lp, m, acc, dst);
  return bias != nullptr
             ? lif_pool_rows<false, true>(blk, pre, bias, lp, m, acc, dst)
             : lif_pool_rows<false, false>(blk, pre, bias, lp, m, acc, dst);
}

}  // namespace

InferenceSession::InferenceSession(const CompiledModel& model,
                                   InferOptions config)
    : model_(&model), config_(config) {
  ST_REQUIRE(model.num_layers() > 0, "cannot build a session on empty model");
  ST_REQUIRE(config_.max_batch > 0, "max_batch must be positive");
  for (const LayerBlock& blk : model.blocks()) {
    const CompiledLayer& head = model.layers()[blk.begin];
    pre_stride_ = std::max(pre_stride_, head.out_elems);
    acc_stride_ = std::max(acc_stride_, blk.cols / blk.pool * blk.channels);
    if (head.kind == OpKind::kConv2d)
      cols_stride_ =
          std::max(cols_stride_, head.geom.col_rows() * head.geom.col_cols());
    else
      linear_stride_ = std::max(linear_stride_, head.out_elems);
  }
  inputs_.resize(model.blocks().size());
  boundary_nz_.resize(model.num_layers() + 1);
  ensure_capacity(config_.max_batch);
}

void InferenceSession::ensure_capacity(std::int64_t batch) {
  if (batch <= capacity_) return;
  const auto& layers = model_->layers();
  const auto& blocks = model_->blocks();
  const auto rows = static_cast<std::size_t>(batch);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto elems =
        static_cast<std::size_t>(layers[blocks[b].begin].in_elems);
    BlockInput& in = inputs_[b];
    // Block 0 reads the caller's batch in place; it only needs index lists.
    if (b > 0) in.plane.resize(rows * elems);
    in.idx.resize(rows * elems);
    in.count.resize(rows);
  }
  linear_out_.resize(rows * static_cast<std::size_t>(linear_stride_));
  // Scratch streams backing the whole-window run(); pool_ never shrinks, so
  // the pointers handed out below stay valid across calls.
  while (pool_.size() < rows) pool_.emplace_back(*model_);
  pool_ptrs_.resize(rows);
  for (std::size_t s = 0; s < pool_.size(); ++s) pool_ptrs_[s] = &pool_[s];
  capacity_ = batch;
}

void InferenceSession::ensure_participants(std::int64_t count) {
  while (parts_.size() < static_cast<std::size_t>(count)) {
    Participant p;
    p.pre.resize(static_cast<std::size_t>(pre_stride_));
    p.cols.resize(static_cast<std::size_t>(cols_stride_));
    p.acc.resize(static_cast<std::size_t>(acc_stride_));
    p.out.resize(static_cast<std::size_t>(model_->output_shape()[0]));
    p.nz.resize(model_->num_layers() + 1);
    parts_.push_back(std::move(p));
  }
}

std::int64_t InferenceSession::build_index_lists(const float* in,
                                                 std::int64_t batch,
                                                 std::int64_t in_elems) {
  BlockInput& lists = inputs_.front();
  parallel_for(0, batch, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t s = sb; s < se; ++s)
      lists.count[static_cast<std::size_t>(s)] = index_nonzeros(
          in + s * in_elems, in_elems, lists.idx.data() + s * in_elems);
  });
  std::int64_t total = 0;
  for (std::int64_t s = 0; s < batch; ++s)
    total += lists.count[static_cast<std::size_t>(s)];
  return total;
}

void InferenceSession::block_sample(std::size_t b, bool sparse,
                                    const float* in_plane,
                                    StreamState* const* streams,
                                    std::int64_t s, float* window_counts,
                                    Participant& part) {
  const auto& layers = model_->layers();
  const auto& blocks = model_->blocks();
  const LayerBlock& blk = blocks[b];
  const CompiledLayer& head = layers[blk.begin];
  const CompiledLayer& lif = layers[blk.begin + 1];

  // Synaptic kernel: the bias-free, channel-last pre-activation.
  const bool timed = config_.record_stage_times;
  const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
  const BlockInput& in = inputs_[b];
  const float* x = in_plane + s * head.in_elems;
  const std::int32_t* idx = in.idx.data() + s * head.in_elems;
  const std::int64_t cnt = in.count[static_cast<std::size_t>(s)];
  const float* pre = part.pre.data();
  if (head.kind == OpKind::kConv2d) {
    if (sparse)
      conv_sparse(head, x, idx, cnt, part.pre.data());
    else
      conv_dense(head, x, part.cols.data(), part.pre.data());
  } else if (sparse) {
    linear_sparse(head, x, idx, cnt, part.pre.data());
  } else {
    pre = linear_out_.data() + s * head.out_elems;  // see linear_dense
  }
  if (timed)
    (sparse ? part.sparse_ns : part.dense_ns) += obs::telemetry_now_ns() - t0;
  if (config_.record_stats)
    part.nz[blk.begin + 1] += biased_nonzeros(
        pre, head.bias, blk.rows * blk.cols, blk.channels);

  // Epilogue straight into the next block's input row (or, for the last
  // block, a scratch row for the output tallies).
  const bool last = b + 1 == blocks.size();
  const std::int64_t out_elems = layers[blk.end - 1].out_elems;
  float* dst = last ? part.out.data()
                    : inputs_[b + 1].plane.data() + s * out_elems;
  StreamState& st = *streams[s];
  part.nz[blk.begin + 2] +=
      lif_pool(blk, head, lif, pre, st.steps_done_ == 0,
               st.arena_.data() + lif.membrane_offset, part.acc.data(), dst);

  std::int64_t out_nz = 0;
  if (!last) {
    // The next block's input row is complete: index it in place.
    BlockInput& next = inputs_[b + 1];
    out_nz = index_nonzeros(dst, out_elems, next.idx.data() + s * out_elems);
    next.count[static_cast<std::size_t>(s)] = out_nz;
  } else {
    // Network output: the window tally and the stream's lifetime tally
    // advance by the same 0/1 floats — exact small-integer accumulation, so
    // cumulative_counts() after k steps equals a k-step window's
    // spike_counts bit for bit, and both match the dense path's ops::add_.
    float* wc = window_counts + s * out_elems;
    float* c = st.counts_.data();
    for (std::int64_t j = 0; j < out_elems; ++j) {
      wc[j] += dst[j];
      c[j] += dst[j];
    }
    out_nz = nonzeros(dst, out_elems);
  }
  // The pool's and every flatten's output: the block's output.
  for (std::size_t slot = blk.begin + 3; slot <= blk.end; ++slot)
    part.nz[slot] += out_nz;
}

void InferenceSession::step_batch(StreamState* const* streams, std::int64_t n,
                                  const float* x, float* window_counts,
                                  InferenceResult& result, StepTotals& totals) {
  const auto& layers = model_->layers();
  const auto& blocks = model_->blocks();
  const std::size_t arena_elems =
      static_cast<std::size_t>(model_->membrane_elems());
  const std::int64_t out_f = model_->output_shape()[0];
  for (std::int64_t s = 0; s < n; ++s) {
    ST_REQUIRE(streams[s] != nullptr, "null stream in batch");
    ST_REQUIRE(streams[s]->arena_.size() == arena_elems &&
                   streams[s]->counts_.size() ==
                       static_cast<std::size_t>(out_f),
               "stream state does not match this session's model");
  }

  // Participant p owns samples [p*n/P, (p+1)*n/P) and its own scratch and
  // tallies; which participant runs a sample never changes its result.
  const std::int64_t parts = std::min<std::int64_t>(num_threads(), n);
  ensure_participants(parts);
  for (std::int64_t p = 0; p < parts; ++p) {
    Participant& part = parts_[static_cast<std::size_t>(p)];
    std::fill(part.nz.begin(), part.nz.end(), 0);
    part.sparse_ns = part.dense_ns = 0;
  }

  const bool timed = config_.record_stage_times;
  const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
  const std::int64_t input_nz =
      build_index_lists(x, n, layers.front().in_elems);
  if (timed) result.index_ns += obs::telemetry_now_ns() - t0;
  // The network input and any leading flattens' outputs.
  std::fill(boundary_nz_.begin(), boundary_nz_.end(), 0);
  std::fill(boundary_nz_.begin(),
            boundary_nz_.begin() +
                static_cast<std::ptrdiff_t>(blocks.front().begin) + 1,
            input_nz);

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const LayerBlock& blk = blocks[b];
    const CompiledLayer& head = layers[blk.begin];
    const float* in_plane = b == 0 ? x : inputs_[b].plane.data();
    // Exact batch-wide density drives the kernel choice, so dispatch is
    // deterministic for any thread count.
    const std::int64_t nz = boundary_nz_[blk.begin];
    const std::int64_t in_total = n * head.in_elems;
    totals.dispatch_nz += nz;
    totals.dispatch_elems += in_total;
    const bool sparse = static_cast<double>(nz) /
                            static_cast<double>(in_total) <=
                        config_.sparse_crossover;
    obs::flight_record(sparse ? obs::FlightEventId::kInferSparseDispatch
                              : obs::FlightEventId::kInferDenseDispatch,
                       static_cast<std::uint64_t>(blk.begin),
                       static_cast<std::uint64_t>(nz));
    if (sparse) {
      ++result.sparse_dispatches;
    } else {
      ++result.dense_dispatches;
      if (head.kind == OpKind::kLinear) {
        const std::uint64_t t1 = timed ? obs::telemetry_now_ns() : 0;
        linear_dense(head, in_plane, n, linear_out_.data());
        if (timed) result.dense_kernel_ns += obs::telemetry_now_ns() - t1;
      }
    }

    parallel_for(0, parts, 1, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t p = pb; p < pe; ++p) {
        Participant& part = parts_[static_cast<std::size_t>(p)];
        for (std::int64_t s = p * n / parts; s < (p + 1) * n / parts; ++s)
          block_sample(b, sparse, in_plane, streams, s, window_counts, part);
      }
    });

    // This block's boundary counts (slot li + 1 is layer li's output).
    for (std::size_t slot = blk.begin + 1; slot <= blk.end; ++slot)
      for (std::int64_t p = 0; p < parts; ++p)
        boundary_nz_[slot] += parts_[static_cast<std::size_t>(p)].nz[slot];
  }

  for (std::int64_t p = 0; p < parts; ++p) {
    const Participant& part = parts_[static_cast<std::size_t>(p)];
    result.sparse_kernel_ns += part.sparse_ns;
    result.dense_kernel_ns += part.dense_ns;
  }
  for (std::size_t li = 0; li < layers.size(); ++li) {
    if (layers[li].kind == OpKind::kLif) totals.spikes += boundary_nz_[li + 1];
    if (config_.record_stats)
      result.stats.add_step(li, boundary_nz_[li], n * layers[li].in_elems,
                            boundary_nz_[li + 1], n * layers[li].out_elems);
  }
  for (std::int64_t s = 0; s < n; ++s) ++streams[s]->steps_done_;
}

InferenceResult InferenceSession::run(const std::vector<Tensor>& step_inputs) {
  ST_REQUIRE(!step_inputs.empty(), "window must contain at least one step");
  const std::int64_t n = step_inputs.front().shape()[0];
  ST_REQUIRE(n > 0, "batch must be non-empty");
  ensure_capacity(n);
  // A window is just n scratch streams born at t=0 and stepped T times.
  for (std::int64_t s = 0; s < n; ++s)
    pool_[static_cast<std::size_t>(s)].reset();
  return run(pool_ptrs_.data(), n, step_inputs);
}

InferenceResult InferenceSession::run(StreamState* const* streams,
                                      std::int64_t n,
                                      const std::vector<Tensor>& step_inputs) {
  ST_PROF_SCOPE("infer.run");
  ST_REQUIRE(!step_inputs.empty(), "window must contain at least one step");
  ST_REQUIRE(n > 0, "batch must be non-empty");
  const Shape& model_in = model_->input_shape();
  for (const Tensor& t : step_inputs) {
    const Shape& s = t.shape();
    ST_REQUIRE(s.rank() == model_in.rank() + 1 && s[0] == n,
               "step input must be [N, " + model_in.str() + "...], got " +
                   s.str());
    for (std::size_t d = 0; d < model_in.rank(); ++d)
      ST_REQUIRE(s[d + 1] == model_in[d],
                 "step input " + s.str() + " does not match model input " +
                     model_in.str());
  }
  ensure_capacity(n);

  const std::int64_t steps = static_cast<std::int64_t>(step_inputs.size());

  InferenceResult result;
  result.stats = model_->make_record();
  result.timesteps = steps;
  result.spike_counts = Tensor(Shape{n, model_->output_shape()[0]});

  StepTotals totals;
  for (std::int64_t t = 0; t < steps; ++t)
    step_batch(streams, n, step_inputs[static_cast<std::size_t>(t)].data(),
               result.spike_counts.data(), result, totals);

  result.stats.note_window(steps, n);
  result.mean_input_density =
      totals.dispatch_elems > 0
          ? static_cast<double>(totals.dispatch_nz) /
                static_cast<double>(totals.dispatch_elems)
          : 0.0;

  if (obs::metrics_enabled()) {
    static const obs::MetricId kSpikes = obs::counter("infer.spikes");
    static const obs::MetricId kSteps = obs::counter("infer.steps");
    static const obs::MetricId kSparse = obs::counter("infer.sparse_dispatch");
    static const obs::MetricId kDense = obs::counter("infer.dense_dispatch");
    obs::add(kSpikes, totals.spikes);
    obs::add(kSteps, steps);
    obs::add(kSparse, result.sparse_dispatches);
    obs::add(kDense, result.dense_dispatches);
  }
  return result;
}

Tensor InferenceSession::step(StreamState& stream, const Tensor& events) {
  ST_PROF_SCOPE("infer.step");
  const Shape& model_in = model_->input_shape();
  const Shape& s = events.shape();
  bool match = s.rank() == model_in.rank();
  for (std::size_t d = 0; match && d < model_in.rank(); ++d)
    match = s[d] == model_in[d];
  ST_REQUIRE(match, "step events must be per-sample " + model_in.str() +
                        ", got " + s.str());
  ensure_capacity(1);

  InferenceResult result;
  if (config_.record_stats) result.stats = model_->make_record();
  Tensor out(Shape{model_->output_shape()[0]});
  StreamState* ptr = &stream;
  StepTotals totals;
  step_batch(&ptr, 1, events.data(), out.data(), result, totals);

  if (obs::metrics_enabled()) {
    static const obs::MetricId kSpikes = obs::counter("infer.spikes");
    static const obs::MetricId kSteps = obs::counter("infer.steps");
    obs::add(kSpikes, totals.spikes);
    obs::add(kSteps, 1);
  }
  return out;
}

}  // namespace spiketune::infer
