#include "snn/conv2d.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/profiler.h"
#include "tensor/gemm.h"
#include "tensor/spike_conv.h"

namespace spiketune::snn {

namespace {

// The calling thread's kernel scratch, at least n floats.  It outlives the
// call, growing to the largest conv step the thread has run, so a warm step
// allocates nothing; every kernel overwrites what it reads.
float* thread_scratch(std::size_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace

Conv2d::Conv2d(Conv2dConfig config, Rng& rng)
    : config_(config),
      weight_("conv.weight",
              Tensor::kaiming_uniform(
                  Shape{config.out_channels,
                        config.in_channels * config.kernel * config.kernel},
                  rng, config.in_channels * config.kernel * config.kernel)),
      bias_("conv.bias",
            config.bias
                ? Tensor::kaiming_uniform(
                      Shape{config.out_channels}, rng,
                      config.in_channels * config.kernel * config.kernel)
                : Tensor(Shape{0})) {
  ST_REQUIRE(config_.in_channels > 0 && config_.out_channels > 0,
             "conv channels must be positive");
  ST_REQUIRE(config_.kernel > 0 && config_.pad >= 0, "bad conv geometry");
}

ConvGeom Conv2d::geom_for(const Shape& input) const {
  ST_REQUIRE(input.rank() == 4, "conv expects [N, C, H, W]");
  ST_REQUIRE(input[1] == config_.in_channels,
             "conv input channel mismatch: got " + input.str());
  return ConvGeom{config_.in_channels, input[2],      input[3],
                  config_.kernel,      config_.kernel, config_.pad,
                  config_.pad,         1,              1};
}

void Conv2d::begin_window(std::int64_t, bool training) {
  training_ = training;
  weight_t_stale_ = true;
  weight_r_stale_ = true;
  num_inputs_ = 0;
  step_inputs_.clear();
  cols_valid_ = false;
}

bool Conv2d::index_inputs(const ConvGeom& g, const Tensor& x) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t in_stride = g.channels * g.height * g.width;
  idx_.resize(static_cast<std::size_t>(n * in_stride));
  count_.resize(static_cast<std::size_t>(n));
  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t i = sb; i < se; ++i)
      count_[static_cast<std::size_t>(i)] =
          index_nonzeros(x.data() + i * in_stride, in_stride,
                         idx_.data() + i * in_stride);
  });
  std::int64_t nz = 0;
  for (std::int64_t c : count_) nz += c;
  // The inference session's rule: exact batch-wide density, so dispatch is
  // the same for any thread count.
  return static_cast<double>(nz) / static_cast<double>(x.numel()) <=
         kDefaultSparseCrossover;
}

const Tensor& Conv2d::forward_step(const Tensor& input) {
  ST_PROF_SCOPE("conv2d.fwd");
  const ConvGeom g = geom_for(input.shape());
  // Direct coding feeds the same image at every step: a step whose input
  // is bitwise the previous one's has that step's output, still in kOut.
  if (num_inputs_ > 0) {
    const Tensor& last = buffers_.at(kInput + num_inputs_ - 1);
    if (last.same_shape(input) &&
        std::memcmp(last.data(), input.data(),
                    static_cast<std::size_t>(input.numel()) * sizeof(float)) ==
            0) {
      if (training_) step_inputs_.push_back(num_inputs_ - 1);
      return buffers_.at(kOut);
    }
  }

  const std::int64_t n = input.shape()[0];
  const std::int64_t ocn = config_.out_channels;
  const std::int64_t kk = g.col_rows();    // IC*KH*KW
  const std::int64_t spatial = g.col_cols();
  const bool sparse = index_inputs(g, input);
  if (sparse && weight_t_stale_) {
    const float* w = weight_.value.data();
    float* wt = buffers_.get(kWeightT, Shape{kk, ocn}).data();
    for (std::int64_t oc = 0; oc < ocn; ++oc)
      for (std::int64_t p = 0; p < kk; ++p) wt[p * ocn + oc] = w[oc * kk + p];
    weight_t_stale_ = false;
  }

  // Both kernels write every output element.
  Tensor& output = buffers_.get(kOut, Shape{n, ocn, g.out_h(), g.out_w()});
  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = ocn * spatial;
  const float* b = config_.bias ? bias_.value.data() : nullptr;
  const float* wt = sparse ? buffers_.at(kWeightT).data() : nullptr;
  const std::size_t scratch =
      static_cast<std::size_t>((sparse ? ocn : kk) * spatial);
  // The forward pass has no cross-sample reductions, so the batch splits
  // across threads, each with its own scratch; each sample writes its own
  // output block.  (With a single-sample batch the slice runs inline and
  // the im2col/gemm kernels parallelize internally.)
  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    // One sample's columns or channel-last scatter.
    float* buf = thread_scratch(scratch);
    for (std::int64_t i = sb; i < se; ++i) {
      const float* x = input.data() + i * in_stride;
      float* out = output.data() + i * out_stride;
      if (sparse) {
        // [spatial, OC] scatter, then out[oc, s] = pre[s, oc] + bias[oc]:
        // the dense path's one bias add per element.
        conv_scatter(g, ocn, wt, x, idx_.data() + i * in_stride,
                     count_[static_cast<std::size_t>(i)], buf);
        for (std::int64_t oc = 0; oc < ocn; ++oc) {
          float* plane = out + oc * spatial;
          if (b != nullptr)
            for (std::int64_t s = 0; s < spatial; ++s)
              plane[s] = buf[s * ocn + oc] + b[oc];
          else
            for (std::int64_t s = 0; s < spatial; ++s)
              plane[s] = buf[s * ocn + oc];
        }
        continue;
      }
      im2col(g, x, buf);
      // out[OC, OHW] = W[OC, K] * cols[K, OHW]
      gemm(ocn, spatial, kk, 1.0f, weight_.value.data(), buf, 0.0f, out);
      if (b != nullptr)
        for (std::int64_t oc = 0; oc < ocn; ++oc) {
          const float bv = b[oc];
          float* plane = out + oc * spatial;
          for (std::int64_t s = 0; s < spatial; ++s) plane[s] += bv;
        }
    }
  });

  if (!training_) num_inputs_ = 0;
  const std::size_t j = num_inputs_++;
  Tensor& kept = buffers_.get(kInput + j, input.shape());
  std::memcpy(kept.data(), input.data(),
              static_cast<std::size_t>(input.numel()) * sizeof(float));
  if (input_sparse_.size() <= j) input_sparse_.resize(j + 1);
  input_sparse_[j] = sparse;
  if (training_) step_inputs_.push_back(j);
  return output;
}

const Tensor& Conv2d::backward_step(const Tensor& grad_output) {
  backward(grad_output, true);
  return buffers_.at(kGradIn);
}

void Conv2d::backward_step_params(const Tensor& grad_output) {
  backward(grad_output, false);
}

void Conv2d::sparse_weight_grad(const ConvGeom& g, const Tensor& x,
                                const Tensor& grad_output, float* gt) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t ocn = config_.out_channels;
  const std::int64_t spatial = g.col_cols();
  const std::int64_t in_stride = g.channels * g.height * g.width;
  // Channel-last output gradient per sample, written in full before it is
  // read, so the gather's inner loop runs over contiguous output channels.
  float* go_t = buffers_.get(kGoT, Shape{n, spatial, ocn}).data();
  parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t i = sb; i < se; ++i) {
      const float* go = grad_output.data() + i * ocn * spatial;
      float* dst = go_t + i * spatial * ocn;
      for (std::int64_t oc = 0; oc < ocn; ++oc)
        for (std::int64_t s = 0; s < spatial; ++s)
          dst[s * ocn + oc] = go[oc * spatial + s];
    }
  });
  // Threads own disjoint gradient rows (output channels) and each walks
  // the samples in batch order, so every element's sum keeps the serial
  // order at any thread count.
  parallel_for(0, ocn, 8, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t i = 0; i < n; ++i)
      conv_gather_dw(g, ocn, x.data() + i * in_stride,
                     idx_.data() + i * in_stride,
                     count_[static_cast<std::size_t>(i)],
                     go_t + i * spatial * ocn, ob, oe, gt);
  });
}

void Conv2d::backward(const Tensor& grad_output, bool input_grad) {
  ST_PROF_SCOPE("conv2d.bwd");
  ST_REQUIRE(!step_inputs_.empty(),
             "conv backward without matching cached forward step");
  const std::size_t slot = step_inputs_.back();
  step_inputs_.pop_back();
  ST_ASSERT(slot + 1 == num_inputs_, "conv step inputs out of order");
  // Steps that read one input are adjacent; it stays cached while an
  // earlier step still reads it.
  const bool shared = !step_inputs_.empty() && step_inputs_.back() == slot;
  const Tensor& input = buffers_.at(kInput + slot);

  const ConvGeom g = geom_for(input.shape());
  const std::int64_t n = input.shape()[0];
  const std::int64_t ocn = config_.out_channels;
  const std::int64_t kk = g.col_rows();
  const std::int64_t spatial = g.col_cols();
  ST_REQUIRE(grad_output.shape() == Shape({n, ocn, g.out_h(), g.out_w()}),
             "conv grad_output shape mismatch");

  const std::int64_t in_stride = g.channels * g.height * g.width;
  const std::int64_t out_stride = ocn * spatial;
  const std::int64_t col_stride = kk * spatial;

  // Weight gradient, per sample in batch order, accumulated for the step in
  // a [K, OC] transpose gT of gW: each kernel's inner loop then runs over
  // contiguous output channels, and the dense path's gemm_nt reads the
  // output gradient as one full-width panel.  Every element gets the same
  // terms in the same order as gemm_nt(go, cols) into gW; each path skips
  // a different kind of ±0 product (DESIGN.md "Training kernels").
  float* gw = weight_.grad.data();
  float* gt = buffers_.get(kGradT, Shape{kk, ocn}).data();
  for (std::int64_t oc = 0; oc < ocn; ++oc)
    for (std::int64_t p = 0; p < kk; ++p) gt[p * ocn + oc] = gw[oc * kk + p];
  if (input_sparse_[slot]) {
    index_inputs(g, input);
    sparse_weight_grad(g, input, grad_output, gt);
  } else {
    // An input read by several steps is lowered once, for all of them;
    // otherwise the slot holds one sample's columns at a time.  im2col
    // writes every column element.
    if (shared && !cols_valid_) {
      float* cols = buffers_.get(kCols, Shape{n * col_stride}).data();
      for (std::int64_t i = 0; i < n; ++i)
        im2col(g, input.data() + i * in_stride, cols + i * col_stride);
      cols_valid_ = true;
    }
    float* cols = cols_valid_
                      ? buffers_.get(kCols, Shape{n * col_stride}).data()
                      : buffers_.get(kCols, Shape{col_stride}).data();
    // The sample loop stays serial to preserve the serial path's summation
    // order exactly; gemm_nt parallelizes internally over disjoint rows.
    for (std::int64_t i = 0; i < n; ++i) {
      const float* sample_cols = cols;
      if (cols_valid_)
        sample_cols += i * col_stride;
      else
        im2col(g, input.data() + i * in_stride, cols);
      // gT[K, OC] += cols[K, OHW] * go[OC, OHW]^T
      gemm_nt(kk, ocn, spatial, 1.0f, sample_cols,
              grad_output.data() + i * out_stride, 1.0f, gt);
    }
  }
  for (std::int64_t oc = 0; oc < ocn; ++oc)
    for (std::int64_t p = 0; p < kk; ++p) gw[oc * kk + p] = gt[p * ocn + oc];

  // Input gradient from the nonzero output gradients: per sample, rows
  // R[s] = sum of go[oc, s] * W'[oc, :] over the nonzero oc, then each
  // input pixel gathers its taps from R.  The samples split across threads,
  // each writing its own dx block from its own scratch.
  if (input_grad) {
    ST_PROF_SCOPE("conv2d.dx");
    if (weight_r_stale_) {
      conv_weight_tap_major(ocn, config_.in_channels,
                            config_.kernel * config_.kernel,
                            weight_.value.data(),
                            buffers_.get(kWeightR, Shape{ocn, kk}).data());
      weight_r_stale_ = false;
    }
    const float* wr = buffers_.at(kWeightR).data();
    float* gin = buffers_.get(kGradIn, input.shape()).data();
    parallel_for(0, n, 1, [&](std::int64_t sb, std::int64_t se) {
      thread_local std::vector<std::int32_t> nz;
      if (nz.size() < static_cast<std::size_t>(ocn))
        nz.resize(static_cast<std::size_t>(ocn));
      // [spatial, K] rows, then the compacted gradient values.
      float* rows =
          thread_scratch(static_cast<std::size_t>(spatial * kk + ocn));
      float* nz_go = rows + spatial * kk;
      for (std::int64_t i = sb; i < se; ++i) {
        conv_grad_rows(spatial, kk, ocn, wr,
                       grad_output.data() + i * out_stride, nz.data(), nz_go,
                       rows);
        conv_gather_dx(g, rows, gin + i * in_stride);
      }
    });
  }

  // Bias gradient: per channel, one double sum over spatial positions per
  // sample, added to gb[oc] in sample order.  Eight samples' sums run as
  // independent chains, each in its serial order.
  if (config_.bias) {
    constexpr std::int64_t kChains = 8;
    float* gb = bias_.grad.data();
    parallel_for(0, ocn, 4, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t oc = ob; oc < oe; ++oc) {
        const float* plane = grad_output.data() + oc * spatial;
        std::int64_t i = 0;
        for (; i + kChains <= n; i += kChains) {
          double acc[kChains] = {};
          for (std::int64_t s = 0; s < spatial; ++s)
            for (std::int64_t c = 0; c < kChains; ++c)
              acc[c] += plane[(i + c) * out_stride + s];
          for (std::int64_t c = 0; c < kChains; ++c)
            gb[oc] += static_cast<float>(acc[c]);
        }
        for (; i < n; ++i) {
          double acc = 0.0;
          for (std::int64_t s = 0; s < spatial; ++s)
            acc += plane[i * out_stride + s];
          gb[oc] += static_cast<float>(acc);
        }
      }
    });
  }

  if (!shared) {
    --num_inputs_;
    cols_valid_ = false;
  }
}

std::vector<Param*> Conv2d::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape Conv2d::output_shape(const Shape& input) const {
  ST_REQUIRE(input.rank() == 3, "output_shape expects per-sample [C, H, W]");
  const std::int64_t oh =
      conv_out_dim(input[1], config_.kernel, config_.pad, 1);
  const std::int64_t ow =
      conv_out_dim(input[2], config_.kernel, config_.pad, 1);
  return Shape{config_.out_channels, oh, ow};
}

}  // namespace spiketune::snn
