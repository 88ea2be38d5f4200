// Spike-sparse kernels for stride-1 convolution, shared by training
// (snn::Conv2d) and inference (infer::InferenceSession).
//
// Both walk the ascending index list of an input plane's nonzeros and
// touch only the (input pixel, tap) pairs that carry a nonzero, so a layer
// fed 10 % dense spikes does about a tenth of the dense im2col + GEMM work.
// Each output element still gets its terms in the dense kernel's order —
// ascending im2col row p = (ic, kh, kw) for the forward pass, ascending
// output position for the weight gradient — and the terms the index list
// skips are exact ±0 products, so both kernels are bit-identical to their
// im2col + GEMM counterparts (DESIGN.md §10).
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

}  // namespace spiketune
