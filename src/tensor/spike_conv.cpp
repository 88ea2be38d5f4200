#include "tensor/spike_conv.h"

#include <algorithm>

namespace spiketune {

// For a fixed output element (oy, ox, oc), the nonzero pixels that reach it
// arrive in ascending f = (ic, iy, ix), and iy = oy - pad + kh, ix = ox -
// pad + kw rise with kh and kw: its terms land in ascending p = (ic, kh,
// kw), the order of gemm(W, cols).
void conv_scatter(const ConvGeom& g, std::int64_t out_channels,
                  const float* weight_t, const float* x,
                  const std::int32_t* idx, std::int64_t cnt, float* pre) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ocn = out_channels;
  const std::int64_t hw = g.height * g.width;

  std::fill(pre, pre + oh * ow * ocn, 0.0f);
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
        const float* wrow = weight_t + (base_p + kh * g.kernel_w + kw) * ocn;
        float* prow = pre + (oy * ow + ox) * ocn;
        for (std::int64_t oc = 0; oc < ocn; ++oc) prow[oc] += v * wrow[oc];
      }
    }
  }
}

// For a fixed gradient element (p = (ic, kh, kw), oc), the pixels of
// channel ic arrive in ascending (iy, ix), so the output positions (oy, ox)
// = (iy + pad - kh, ix + pad - kw) they pair with ascend too: the order in
// which gemm_nt(go, cols) walks its reduction index.
void conv_gather_dw(const ConvGeom& g, std::int64_t out_channels,
                    const float* x, const std::int32_t* idx, std::int64_t cnt,
                    const float* go_t, std::int64_t oc_begin,
                    std::int64_t oc_end, float* grad_t) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ocn = out_channels;
  const std::int64_t hw = g.height * g.width;

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
        const float* grow = go_t + (oy * ow + ox) * ocn;
        float* wrow = grad_t + (base_p + kh * g.kernel_w + kw) * ocn;
        for (std::int64_t oc = oc_begin; oc < oc_end; ++oc)
          wrow[oc] += v * grow[oc];
      }
    }
  }
}

}  // namespace spiketune
