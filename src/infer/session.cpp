#include "infer/session.h"

#include <algorithm>
#include <type_traits>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace spiketune::infer {

namespace {

// Writes the ascending indices of x's nonzeros into idx and returns their
// count.  Branch-free: idx must hold n entries.
std::int64_t index_row(const float* x, std::int64_t n, std::int32_t* idx) {
  std::int64_t c = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    idx[c] = static_cast<std::int32_t>(i);
    c += (x[i] != 0.0f);
  }
  return c;
}

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
// intermediate planes live in that participant's scratch and stay in cache.
// The per-element arithmetic is the training layers'; DESIGN.md §10 has the
// bit-identity argument.

// Conv2d, sparse: scatter each nonzero input pixel through the [K, OC]
// transposed weights into a zeroed [spatial, OC] scratch, then transpose
// into the [OC, OH, OW] output fusing the bias add.  For any fixed output
// element, contributions land in ascending p = (ic, kh, kw) order — the
// dense im2col+GEMM reduction order — and the terms that differ between the
// two paths are exact ±0.0 products, so the result is bit-identical to the
// dense kernel.
void conv_sparse(const CompiledLayer& l, const float* x,
                 const std::int32_t* idx, std::int64_t cnt, float* scr,
                 float* out) {
  ST_PROF_SCOPE("infer.conv_sparse");
  const ConvGeom& g = l.geom;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t spatial = oh * ow;
  const std::int64_t ocn = l.out_shape[0];
  const std::int64_t hw = g.height * g.width;
  const float* wt = l.weight_t.data();
  const float* b = l.bias.numel() > 0 ? l.bias.data() : nullptr;

  std::fill(scr, scr + spatial * ocn, 0.0f);
  for (std::int64_t e = 0; e < cnt; ++e) {
    const std::int64_t f = idx[e];
    const float v = x[f];
    const std::int64_t ic = f / hw;
    const std::int64_t rem = f - ic * hw;
    const std::int64_t iy = rem / g.width;
    const std::int64_t ix = rem - iy * g.width;
    const std::int64_t base_p = ic * g.kernel_h * g.kernel_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const std::int64_t oy = iy + g.pad_h - kh;
      if (oy < 0 || oy >= oh) continue;
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::int64_t ox = ix + g.pad_w - kw;
        if (ox < 0 || ox >= ow) continue;
        const float* wrow = wt + (base_p + kh * g.kernel_w + kw) * ocn;
        float* srow = scr + (oy * ow + ox) * ocn;
        for (std::int64_t oc = 0; oc < ocn; ++oc) srow[oc] += v * wrow[oc];
      }
    }
  }
  // [spatial, OC] -> [OC, spatial] in tiles of kTile positions, so the
  // tile's scratch rows stay in L1 while every channel reads them.
  constexpr std::int64_t kTile = 16;
  for (std::int64_t sp0 = 0; sp0 < spatial; sp0 += kTile) {
    const std::int64_t sp1 = std::min(sp0 + kTile, spatial);
    for (std::int64_t oc = 0; oc < ocn; ++oc) {
      float* oplane = out + oc * spatial;
      if (b != nullptr) {
        const float bv = b[oc];
        for (std::int64_t sp = sp0; sp < sp1; ++sp)
          oplane[sp] = scr[sp * ocn + oc] + bv;
      } else {
        for (std::int64_t sp = sp0; sp < sp1; ++sp)
          oplane[sp] = scr[sp * ocn + oc];
      }
    }
  }
}

// Conv2d, dense: exactly snn::Conv2d::forward_step for one sample, with the
// im2col buffer drawn from participant scratch.
void conv_dense(const CompiledLayer& l, const float* x, float* cols,
                float* out) {
  ST_PROF_SCOPE("infer.conv_dense");
  const ConvGeom& g = l.geom;
  const std::int64_t spatial = g.col_cols();
  const std::int64_t ocn = l.out_shape[0];
  im2col(g, x, cols);
  gemm(ocn, spatial, g.col_rows(), 1.0f, l.weight.data(), cols, 0.0f, out);
  if (l.bias.numel() > 0) {
    const float* b = l.bias.data();
    for (std::int64_t oc = 0; oc < ocn; ++oc) {
      const float bv = b[oc];
      float* plane = out + oc * spatial;
      for (std::int64_t sp = 0; sp < spatial; ++sp) plane[sp] += bv;
    }
  }
}

// Linear, sparse: fold each nonzero input through its [in, out] weight row
// in ascending input order — the dense GEMM's k order.
void linear_sparse(const CompiledLayer& l, const float* x,
                   const std::int32_t* idx, std::int64_t cnt, float* out) {
  ST_PROF_SCOPE("infer.linear_sparse");
  const std::int64_t out_f = l.out_shape[0];
  const float* wt = l.weight_t.data();
  std::fill(out, out + out_f, 0.0f);
  for (std::int64_t e = 0; e < cnt; ++e) {
    const std::int64_t f = idx[e];
    const float v = x[f];
    const float* wrow = wt + f * out_f;
    for (std::int64_t j = 0; j < out_f; ++j) out[j] += v * wrow[j];
  }
  if (l.bias.numel() > 0) {
    const float* b = l.bias.data();
    for (std::int64_t j = 0; j < out_f; ++j) out[j] += b[j];
  }
}

// Linear, dense: exactly snn::Linear::forward_step.  The one batch-wide
// kernel — a GEMM earns its speed from reusing weights across rows — so it
// runs before the per-sample pass, which then reads row s of `out`.
void linear_dense(const CompiledLayer& l, const float* in, std::int64_t n,
                  float* out) {
  ST_PROF_SCOPE("infer.linear_dense");
  const std::int64_t out_f = l.out_shape[0];
  gemm_nt(n, out_f, l.in_elems, 1.0f, in, l.weight.data(), 0.0f, out);
  if (l.bias.numel() > 0) {
    const float* b = l.bias.data();
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < out_f; ++j) out[i * out_f + j] += b[j];
  }
}

// LIF: the elementwise recurrence of snn::Lif::forward_step on one stream's
// membrane plane `m`.  A fresh stream's step reads no membrane term at all,
// matching the dense layer's has_membrane_ gate on timestep 0.  Returns the
// spike count.
std::int64_t lif(const CompiledLayer& l, const float* in, bool first_step,
                 float* m, float* out) {
  ST_PROF_SCOPE("infer.lif");
  const float beta = l.beta;
  const float theta = l.threshold;
  std::int64_t fired = 0;
  for (std::int64_t i = 0; i < l.out_elems; ++i) {
    float u = in[i];
    if (!first_step) u += beta * m[i];
    const bool fire = u > theta;
    out[i] = fire ? 1.0f : 0.0f;
    if (fire) {
      u -= theta;
      ++fired;
    }
    m[i] = u;
  }
  return fired;
}

// Pooling: same per-window arithmetic as snn::MaxPool2d / snn::AvgPool2d
// (first-element init + strict > for max; ascending (dy, dx) accumulation
// for avg), one output row at a time.  The rows are compiled once for the
// common 2x2 window, whose constant stride lets the compiler vectorize
// across the row.

// Calls row(r, k) for every output row r = plane * oh + y, with k the
// window size (a compile-time constant when it is 2).
template <typename RowFn>
void for_pool_rows(const CompiledLayer& l, RowFn&& row) {
  const std::int64_t rows = l.in_shape[0] * l.out_shape[1];
  if (l.pool_kernel == 2) {
    for (std::int64_t r = 0; r < rows; ++r)
      row(r, std::integral_constant<std::int64_t, 2>{});
  } else {
    for (std::int64_t r = 0; r < rows; ++r) row(r, l.pool_kernel);
  }
}

void maxpool(const CompiledLayer& l, const float* in, float* out) {
  ST_PROF_SCOPE("infer.maxpool");
  const std::int64_t h = l.in_shape[1];
  const std::int64_t w = l.in_shape[2];
  const std::int64_t oh = l.out_shape[1];
  const std::int64_t ow = l.out_shape[2];
  for_pool_rows(l, [&](std::int64_t r, auto k) {
    const std::int64_t p = r / oh;
    const float* top = in + (p * h + (r - p * oh) * k) * w;
    float* orow = out + r * ow;
    for (std::int64_t x = 0; x < ow; ++x) {
      float best = top[x * k];
      for (std::int64_t dy = 0; dy < k; ++dy)
        for (std::int64_t dx = 0; dx < k; ++dx) {
          const float v = top[dy * w + x * k + dx];
          if (v > best) best = v;
        }
      orow[x] = best;
    }
  });
}

void avgpool(const CompiledLayer& l, const float* in, float* out) {
  ST_PROF_SCOPE("infer.avgpool");
  const std::int64_t h = l.in_shape[1];
  const std::int64_t w = l.in_shape[2];
  const std::int64_t oh = l.out_shape[1];
  const std::int64_t ow = l.out_shape[2];
  const float inv = 1.0f / static_cast<float>(l.pool_kernel * l.pool_kernel);
  for_pool_rows(l, [&](std::int64_t r, auto k) {
    const std::int64_t p = r / oh;
    const float* top = in + (p * h + (r - p * oh) * k) * w;
    float* orow = out + r * ow;
    for (std::int64_t x = 0; x < ow; ++x) {
      float acc = 0.0f;
      for (std::int64_t dy = 0; dy < k; ++dy)
        for (std::int64_t dx = 0; dx < k; ++dx)
          acc += top[dy * w + x * k + dx];
      orow[x] = acc * inv;
    }
  });
}

}  // namespace

InferenceSession::InferenceSession(const CompiledModel& model,
                                   InferOptions config)
    : model_(&model), config_(config) {
  ST_REQUIRE(model.num_layers() > 0, "cannot build a session on empty model");
  ST_REQUIRE(config_.max_batch > 0, "max_batch must be positive");
  for (const auto& l : model.layers()) {
    plane_stride_ = std::max(plane_stride_, l.out_elems);
    if (l.kind == OpKind::kConv2d) {
      const std::int64_t spatial = l.geom.col_cols();
      scatter_stride_ = std::max(scatter_stride_, spatial * l.out_shape[0]);
      cols_stride_ = std::max(cols_stride_, l.geom.col_rows() * spatial);
    } else if (l.kind == OpKind::kLinear) {
      linear_stride_ = std::max(linear_stride_, l.out_elems);
    }
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
    if (blocks[b].synaptic) {
      in.idx.resize(rows * elems);
      in.count.resize(rows);
    }
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
    p.scatter.resize(static_cast<std::size_t>(scatter_stride_));
    p.cols.resize(static_cast<std::size_t>(cols_stride_));
    p.ping.resize(static_cast<std::size_t>(plane_stride_));
    p.pong.resize(static_cast<std::size_t>(plane_stride_));
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
      lists.count[static_cast<std::size_t>(s)] = index_row(
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
  const LayerBlock& blk = model_->blocks()[b];
  const CompiledLayer& head = layers[blk.begin];
  const bool stats = config_.record_stats;
  const float* cur = in_plane + s * head.in_elems;
  std::int64_t cur_nz = -1;  // nonzeros of `cur`, when counted

  // Ops never write the plane they read: each writes the scratch plane the
  // previous op did not.
  float* planes[2] = {part.ping.data(), part.pong.data()};
  int next_plane = 0;
  const auto fresh_plane = [&] {
    float* p = planes[next_plane];
    next_plane ^= 1;
    return p;
  };

  std::size_t li = blk.begin;
  if (blk.synaptic) {
    const bool timed = config_.record_stage_times;
    const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
    const BlockInput& in = inputs_[b];
    const std::int32_t* idx = in.idx.data() + s * head.in_elems;
    const std::int64_t cnt = in.count[static_cast<std::size_t>(s)];
    if (head.kind == OpKind::kConv2d) {
      float* out = fresh_plane();
      if (sparse)
        conv_sparse(head, cur, idx, cnt, part.scatter.data(), out);
      else
        conv_dense(head, cur, part.cols.data(), out);
      cur = out;
    } else if (sparse) {
      float* out = fresh_plane();
      linear_sparse(head, cur, idx, cnt, out);
      cur = out;
    } else {
      cur = linear_out_.data() + s * head.out_elems;  // see linear_dense
    }
    if (timed)
      (sparse ? part.sparse_ns : part.dense_ns) += obs::telemetry_now_ns() - t0;
    if (stats) {
      cur_nz = nonzeros(cur, head.out_elems);
      part.nz[li + 1] += cur_nz;
    }
    ++li;
  } else if (stats) {
    // A leading tail reads the network input, which nothing scanned.
    part.nz[li] += nonzeros(cur, head.in_elems);
  }

  for (; li < blk.end; ++li) {
    const CompiledLayer& l = layers[li];
    switch (l.kind) {
      case OpKind::kLif: {
        StreamState& st = *streams[s];
        float* out = fresh_plane();
        cur_nz = lif(l, cur, st.steps_done_ == 0,
                     st.arena_.data() + l.membrane_offset, out);
        cur = out;
        break;
      }
      case OpKind::kMaxPool2d:
      case OpKind::kAvgPool2d: {
        float* out = fresh_plane();
        if (l.kind == OpKind::kMaxPool2d)
          maxpool(l, cur, out);
        else
          avgpool(l, cur, out);
        cur = out;
        cur_nz = stats ? nonzeros(cur, l.out_elems) : -1;
        break;
      }
      case OpKind::kFlatten:  // a reshape: same plane, same count
        break;
      case OpKind::kConv2d:
      case OpKind::kLinear:
        ST_ASSERT(false, "synaptic layer inside a block tail");
    }
    if (cur_nz >= 0) part.nz[li + 1] += cur_nz;
  }

  const std::int64_t out_elems = layers[blk.end - 1].out_elems;
  if (b + 1 < model_->blocks().size()) {
    // Hand the next block its input row and ascending index list.
    BlockInput& next = inputs_[b + 1];
    float* dst = next.plane.data() + s * out_elems;
    std::copy(cur, cur + out_elems, dst);
    const std::int64_t c =
        index_row(dst, out_elems, next.idx.data() + s * out_elems);
    next.count[static_cast<std::size_t>(s)] = c;
    if (cur_nz < 0) part.nz[blk.end] += c;
  } else {
    // Network output: the window tally and the stream's lifetime tally
    // advance by the same 0/1 floats — exact small-integer accumulation, so
    // cumulative_counts() after k steps equals a k-step window's
    // spike_counts bit for bit, and both match the dense path's ops::add_.
    float* w = window_counts + s * out_elems;
    float* c = streams[s]->counts_.data();
    for (std::int64_t j = 0; j < out_elems; ++j) {
      w[j] += cur[j];
      c[j] += cur[j];
    }
  }
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
  std::fill(boundary_nz_.begin(), boundary_nz_.end(), 0);

  const bool timed = config_.record_stage_times;
  if (blocks.front().synaptic) {
    const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
    boundary_nz_[0] = build_index_lists(x, n, layers.front().in_elems);
    if (timed) result.index_ns += obs::telemetry_now_ns() - t0;
  }

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const LayerBlock& blk = blocks[b];
    const CompiledLayer& head = layers[blk.begin];
    const float* in_plane = b == 0 ? x : inputs_[b].plane.data();
    bool sparse = false;
    if (blk.synaptic) {
      // Exact batch-wide density drives the kernel choice, so dispatch is
      // deterministic for any thread count.
      const std::int64_t nz = boundary_nz_[blk.begin];
      const std::int64_t in_total = n * head.in_elems;
      totals.dispatch_nz += nz;
      totals.dispatch_elems += in_total;
      sparse = static_cast<double>(nz) / static_cast<double>(in_total) <=
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
          const std::uint64_t t0 = timed ? obs::telemetry_now_ns() : 0;
          linear_dense(head, in_plane, n, linear_out_.data());
          if (timed) result.dense_kernel_ns += obs::telemetry_now_ns() - t0;
        }
      }
    }

    parallel_for(0, parts, 1, [&](std::int64_t pb, std::int64_t pe) {
      for (std::int64_t p = pb; p < pe; ++p) {
        Participant& part = parts_[static_cast<std::size_t>(p)];
        for (std::int64_t s = p * n / parts; s < (p + 1) * n / parts; ++s)
          block_sample(b, sparse, in_plane, streams, s, window_counts, part);
      }
    });

    // This block's boundary counts (slot li + 1 is layer li's output; a
    // leading tail also counted the network input, slot 0).
    for (std::size_t slot = blk.synaptic ? blk.begin + 1 : blk.begin;
         slot <= blk.end; ++slot)
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
