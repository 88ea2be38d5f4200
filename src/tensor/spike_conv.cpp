#include "tensor/spike_conv.h"

#include <algorithm>
#include <cstring>

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

namespace {

// Eight floats: one AVX register; without AVX the compiler splits it in
// two.  (The GEMM core's vector, tensor/gemm.cpp.)
using Vec = float __attribute__((vector_size(32)));
constexpr std::int64_t kLanes = sizeof(Vec) / sizeof(float);

// r[j0, j0 + V * kLanes) = sum over the cnt terms e, in order and from +0,
// of g[e] * w_e[j], with w_e the weight_r row of output channel nz[e].
// The block stays in registers across all terms.
template <int V>
void row_block(std::int64_t cnt, const std::int32_t* nz, const float* g,
               const float* weight_r, std::int64_t k, std::int64_t j0,
               float* r) {
  Vec acc[V] = {};
  for (std::int64_t e = 0; e < cnt; ++e) {
    const float* w = weight_r + nz[e] * k + j0;
    for (int v = 0; v < V; ++v) {
      Vec wv;
      std::memcpy(&wv, w + v * kLanes, sizeof(Vec));
      acc[v] += g[e] * wv;
    }
  }
  for (int v = 0; v < V; ++v)
    std::memcpy(r + j0 + v * kLanes, &acc[v], sizeof(Vec));
}

// row_block for the last k - j0 < kLanes elements, through zero-padded
// vectors.  A scalar loop here is not safe: GCC may vectorize its products
// apart from its adds, and the unfused products round differently.
void row_tail(std::int64_t cnt, const std::int32_t* nz, const float* g,
              const float* weight_r, std::int64_t k, std::int64_t j0,
              float* r) {
  const std::size_t bytes = static_cast<std::size_t>(k - j0) * sizeof(float);
  Vec acc = {};
  for (std::int64_t e = 0; e < cnt; ++e) {
    Vec wv = {};
    std::memcpy(&wv, weight_r + nz[e] * k + j0, bytes);
    acc += g[e] * wv;
  }
  std::memcpy(r + j0, &acc, bytes);
}

// The taps one input pixel gathers: rows offsets base + kh * step_h +
// kw * step_w for kh in [kh_lo, kh_hi) and kw in [kw_lo, kw_hi).
struct PixelTaps {
  std::int64_t base;
  std::int64_t step_h;
  std::int64_t step_w;
  std::int64_t kh_lo;
  std::int64_t kh_hi;
  std::int64_t kw_lo;
  std::int64_t kw_hi;
};

// dx[c * hw] for c in [c0, c0 + V * kLanes): +0 plus the pixel's taps in
// ascending (kh, kw), held in registers until the one store.
template <int V>
void gather_block(const float* rows, const PixelTaps& p, std::int64_t c0,
                  std::int64_t hw, float* dx) {
  Vec acc[V] = {};
  for (std::int64_t kh = p.kh_lo; kh < p.kh_hi; ++kh)
    for (std::int64_t kw = p.kw_lo; kw < p.kw_hi; ++kw) {
      const float* src =
          rows + (p.base + kh * p.step_h + kw * p.step_w + c0);
      for (int v = 0; v < V; ++v) {
        Vec t;
        std::memcpy(&t, src + v * kLanes, sizeof(Vec));
        acc[v] += t;
      }
    }
  for (int v = 0; v < V; ++v)
    for (int l = 0; l < kLanes; ++l)
      dx[(c0 + v * kLanes + l) * hw] = acc[v][l];
}

}  // namespace

void conv_weight_tap_major(std::int64_t out_channels,
                           std::int64_t in_channels, std::int64_t taps,
                           const float* weight, float* weight_r) {
  const std::int64_t k = in_channels * taps;
  for (std::int64_t oc = 0; oc < out_channels; ++oc)
    for (std::int64_t ic = 0; ic < in_channels; ++ic)
      for (std::int64_t t = 0; t < taps; ++t)
        weight_r[oc * k + t * in_channels + ic] =
            weight[oc * k + ic * taps + t];
}

// gemm_tn(W, go) gives each column element one multiply-add per output
// channel, in ascending oc, from +0.  The channels compacted away here have
// go == ±0, so their products are ±0, and adding ±0 leaves a sum that
// started at +0 unchanged (it is never −0).  Each register block of a row
// takes every term in turn, so each element still gets them one at a time,
// in order.
void conv_grad_rows(std::int64_t spatial, std::int64_t k,
                    std::int64_t out_channels, const float* weight_r,
                    const float* go, std::int32_t* nz, float* nz_go,
                    float* rows) {
  for (std::int64_t s = 0; s < spatial; ++s) {
    std::int64_t cnt = 0;
    for (std::int64_t oc = 0; oc < out_channels; ++oc) {
      const float v = go[oc * spatial + s];
      nz[cnt] = static_cast<std::int32_t>(oc);
      nz_go[cnt] = v;
      cnt += (v != 0.0f);
    }
    float* r = rows + s * k;
    std::int64_t j = 0;
    for (; j + 8 * kLanes <= k; j += 8 * kLanes)
      row_block<8>(cnt, nz, nz_go, weight_r, k, j, r);
    if (j + 4 * kLanes <= k) {
      row_block<4>(cnt, nz, nz_go, weight_r, k, j, r);
      j += 4 * kLanes;
    }
    if (j + 2 * kLanes <= k) {
      row_block<2>(cnt, nz, nz_go, weight_r, k, j, r);
      j += 2 * kLanes;
    }
    if (j + kLanes <= k) {
      row_block<1>(cnt, nz, nz_go, weight_r, k, j, r);
      j += kLanes;
    }
    if (j < k) row_tail(cnt, nz, nz_go, weight_r, k, j, r);
  }
}

// col2im adds row (c, kh, kw) of the columns onto a zeroed plane in
// ascending (kh, kw), so pixel (y, x) of channel c receives its taps in
// that order.  The gather adds the same values in the same order, one
// pixel at a time, a register block of channels at a time.
void conv_gather_dx(const ConvGeom& g, const float* rows, float* dx) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t cn = g.channels;
  const std::int64_t k = g.kernel_h * g.kernel_w * cn;
  const std::int64_t hw = g.height * g.width;

  PixelTaps p;
  // Tap (kh, kw) of pixel (y, x) sits in row (y + pad - kh, x + pad - kw)
  // at column (kh, kw, 0).
  p.step_h = g.kernel_w * cn - ow * k;
  p.step_w = cn - k;
  for (std::int64_t y = 0; y < g.height; ++y) {
    // Taps with 0 <= y + pad - kh < oh.
    p.kh_lo = std::max<std::int64_t>(0, y + g.pad_h - oh + 1);
    p.kh_hi = std::min(g.kernel_h, y + g.pad_h + 1);
    for (std::int64_t x = 0; x < g.width; ++x) {
      p.kw_lo = std::max<std::int64_t>(0, x + g.pad_w - ow + 1);
      p.kw_hi = std::min(g.kernel_w, x + g.pad_w + 1);
      p.base = ((y + g.pad_h) * ow + x + g.pad_w) * k;
      float* out = dx + y * g.width + x;
      std::int64_t c = 0;
      for (; c + 8 * kLanes <= cn; c += 8 * kLanes)
        gather_block<8>(rows, p, c, hw, out);
      if (c + 4 * kLanes <= cn) {
        gather_block<4>(rows, p, c, hw, out);
        c += 4 * kLanes;
      }
      if (c + 2 * kLanes <= cn) {
        gather_block<2>(rows, p, c, hw, out);
        c += 2 * kLanes;
      }
      if (c + kLanes <= cn) {
        gather_block<1>(rows, p, c, hw, out);
        c += kLanes;
      }
      for (; c < cn; ++c) {
        float a = 0.0f;
        for (std::int64_t kh = p.kh_lo; kh < p.kh_hi; ++kh)
          for (std::int64_t kw = p.kw_lo; kw < p.kw_hi; ++kw)
            a += rows[p.base + kh * p.step_h + kw * p.step_w + c];
        out[c * hw] = a;
      }
    }
  }
}

}  // namespace spiketune
