// Sparse kernels for stride-1 convolution.
//
// The forward scatter and the weight-gradient gather, shared by training
// (snn::Conv2d) and inference (infer::InferenceSession), walk the
// ascending index list of an input plane's nonzeros and touch only the
// (input pixel, tap) pairs that carry a nonzero, so a layer fed 10 % dense
// spikes does about a tenth of the dense im2col + GEMM work.  The
// input-gradient pair (training only) likewise skips the zero output
// gradients a max pool leaves.  Each output element still gets its terms
// in the dense kernel's order — ascending im2col row p = (ic, kh, kw) for
// the forward pass, ascending output position for the weight gradient,
// ascending output channel then ascending tap for the input gradient — and
// the terms skipped are exact ±0 products, so every kernel is
// bit-identical to its im2col + GEMM counterpart (DESIGN.md §10).
#pragma once

#include <cstdint>

#include "tensor/im2col.h"

namespace spiketune {

/// Input density at or below which a conv or linear layer takes its sparse
/// kernel, measured as an exact nonzero count over the whole step batch.
/// The inference default (InferOptions::sparse_crossover) and the training
/// layer's fixed rule.
inline constexpr double kDefaultSparseCrossover = 0.35;

/// Writes the ascending indices of x's nonzeros into idx and returns their
/// count.  Branch-free: idx must hold n entries.
inline std::int64_t index_nonzeros(const float* x, std::int64_t n,
                                   std::int32_t* idx) {
  std::int64_t c = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    idx[c] = static_cast<std::int32_t>(i);
    c += (x[i] != 0.0f);
  }
  return c;
}

/// Forward scatter of one [C, H, W] input plane: pre[spatial, oc] =
/// sum over the `cnt` nonzeros idx of x, through the [K, OC] transposed
/// weights `weight_t`.  `pre` is zeroed first and left bias-free and
/// channel-last.  Equals im2col + gemm(W, cols) bit for bit.
void conv_scatter(const ConvGeom& g, std::int64_t out_channels,
                  const float* weight_t, const float* x,
                  const std::int32_t* idx, std::int64_t cnt, float* pre);

/// Weight-gradient gather of one sample: grad_t[p, oc] += go_t[s, oc] *
/// x[pixel] for every nonzero pixel and tap, for oc in [oc_begin, oc_end).
/// `go_t` is the sample's output gradient channel-last ([spatial, OC]) and
/// `grad_t` the [K, OC] transposed weight gradient.  Equals im2col +
/// gemm_nt(go, cols) accumulated into the gradient bit for bit.
void conv_gather_dw(const ConvGeom& g, std::int64_t out_channels,
                    const float* x, const std::int32_t* idx, std::int64_t cnt,
                    const float* go_t, std::int64_t oc_begin,
                    std::int64_t oc_end, float* grad_t);

/// The weight copy conv_grad_rows reads: weight_r[oc, (t, ic)] =
/// weight[oc, (ic, t)] for the `taps` = KH*KW kernel taps t = (kh, kw).
void conv_weight_tap_major(std::int64_t out_channels,
                           std::int64_t in_channels, std::int64_t taps,
                           const float* weight, float* weight_r);

/// Input-gradient rows of one sample, from its nonzero output gradients:
/// rows[s, j] = sum over the output channels oc with go[oc, s] != 0, in
/// ascending oc and from +0, of go[oc, s] * weight_r[oc, j].  `go` is the
/// sample's [OC, spatial] output gradient, `weight_r` the [OC, K]
/// tap-major weight copy (j = (kh, kw, ic)); `nz` and `nz_go` are
/// scratch for OC indices and values.  Row s holds column s of
/// gemm_tn(W, go), permuted to (kh, kw, ic) order, bit for bit.
void conv_grad_rows(std::int64_t spatial, std::int64_t k,
                    std::int64_t out_channels, const float* weight_r,
                    const float* go, std::int32_t* nz, float* nz_go,
                    float* rows);

/// Input gradient of one [C, H, W] plane from the [spatial, K] rows of
/// conv_grad_rows: dx[c, y, x] = +0 plus, over the pixel's taps in
/// ascending (kh, kw), rows[(y + pad - kh, x + pad - kw), (kh, kw, c)].
/// Writes every element of dx.  Equals col2im of the columns onto a zeroed
/// plane bit for bit.
void conv_gather_dx(const ConvGeom& g, const float* rows, float* dx);

}  // namespace spiketune
