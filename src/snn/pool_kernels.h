// Pooling kernels over planes of [H, W] with non-overlapping k x k windows
// (kernel == stride), flooring ragged borders like PyTorch's default.
//
// Each pool has one body per direction.  The average pool's is templated on
// the window size: K > 0 fixes it at compile time (the paper's k = 2
// pools), K == 0 reads it from the geometry.  Both instantiations visit a
// window's taps in the same (dy, dx) order, so they give the same bits; the
// fixed one only lets the compiler unroll the window.  The max pool reads
// k from the geometry only: its k = 2 instantiation measured no faster
// (EXPERIMENTS.md, "Allocation-free BPTT step").
//
// The backward kernels give every input-gradient element the value of the
// unfused "zero-fill, then +=" form: `0.0f + g` where a tap receives g
// (0 + -0 is +0, so a plain store of g would flip the sign of a zero) and
// +0 everywhere else, ragged borders included.  They write the whole
// plane, so the buffer needs no fill beforehand.
#pragma once

#include <algorithm>
#include <cstdint>

namespace spiketune::snn::pool_kernels {

struct PoolGeom {
  std::int64_t planes = 0;  // N * C
  std::int64_t h = 0;       // input plane height and width
  std::int64_t w = 0;
  std::int64_t k = 0;       // window size = stride
};

namespace detail {
template <int K>
std::int64_t window(const PoolGeom& g) {
  if constexpr (K > 0) return K;
  return g.k;
}

// Zeroes the columns right of the last window and the rows below it.
inline void zero_ragged(const PoolGeom& g, std::int64_t used_h,
                        std::int64_t used_w, float* plane) {
  for (std::int64_t y = 0; y < used_h; ++y)
    for (std::int64_t x = used_w; x < g.w; ++x) plane[y * g.w + x] = 0.0f;
  for (std::int64_t i = used_h * g.w; i < g.h * g.w; ++i) plane[i] = 0.0f;
}
}  // namespace detail

/// out[p, y, x] = (sum of the window's taps) / k^2, summed in tap order.
template <int K>
void avg_forward(const PoolGeom& g, const float* in, float* out) {
  const std::int64_t k = detail::window<K>(g);
  const std::int64_t oh = g.h / k;
  const std::int64_t ow = g.w / k;
  const float inv = 1.0f / static_cast<float>(k * k);
  for (std::int64_t p = 0; p < g.planes; ++p) {
    const float* iplane = in + p * g.h * g.w;
    float* oplane = out + p * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t x = 0; x < ow; ++x) {
        float acc = 0.0f;
        for (std::int64_t dy = 0; dy < k; ++dy)
          for (std::int64_t dx = 0; dx < k; ++dx)
            acc += iplane[(y * k + dy) * g.w + (x * k + dx)];
        oplane[y * ow + x] = acc * inv;
      }
  }
}

/// Every tap of a window gets its output's gradient / k^2.
template <int K>
void avg_backward(const PoolGeom& g, const float* go, float* gi) {
  const std::int64_t k = detail::window<K>(g);
  const std::int64_t oh = g.h / k;
  const std::int64_t ow = g.w / k;
  const float inv = 1.0f / static_cast<float>(k * k);
  for (std::int64_t p = 0; p < g.planes; ++p) {
    float* iplane = gi + p * g.h * g.w;
    const float* oplane = go + p * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t dy = 0; dy < k; ++dy) {
        float* row = iplane + (y * k + dy) * g.w;
        for (std::int64_t x = 0; x < ow; ++x) {
          const float v = oplane[y * ow + x] * inv;
          for (std::int64_t dx = 0; dx < k; ++dx) row[x * k + dx] = 0.0f + v;
        }
      }
    detail::zero_ragged(g, oh * k, ow * k, iplane);
  }
}

/// out = the window's largest tap (the first in tap order on ties); `taps`
/// gets its index dy * k + dx within the window.
inline void max_forward(const PoolGeom& g, const float* in, float* out,
                        std::int32_t* taps) {
  const std::int64_t k = g.k;
  const std::int64_t w = g.w;
  const std::int64_t oh = g.h / k;
  const std::int64_t ow = g.w / k;
  for (std::int64_t p = 0; p < g.planes; ++p) {
    const float* iplane = in + p * g.h * w;
    float* oplane = out + p * oh * ow;
    std::int32_t* tplane = taps + p * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t x = 0; x < ow; ++x) {
        const float* win = iplane + y * k * w + x * k;
        float best = win[0];
        std::int32_t best_tap = 0;
        // Selects, not branches: a strict > keeps the first maximum (and
        // skips NaN taps) either way, and the selects vectorize.
        for (std::int64_t dy = 0; dy < k; ++dy)
          for (std::int64_t dx = 0; dx < k; ++dx) {
            const float v = win[dy * w + dx];
            const bool gt = v > best;
            best = gt ? v : best;
            best_tap = gt ? static_cast<std::int32_t>(dy * k + dx) : best_tap;
          }
        oplane[y * ow + x] = best;
        tplane[y * ow + x] = best_tap;
      }
  }
}

/// The window's recorded tap gets its output's gradient, every other
/// element +0: the plane is zeroed, then each window's tap written.
inline void max_backward(const PoolGeom& g, const float* go,
                         const std::int32_t* taps, float* gi) {
  const std::int64_t k = g.k;
  const std::int64_t w = g.w;
  const std::int64_t oh = g.h / k;
  const std::int64_t ow = g.w / k;
  std::fill(gi, gi + g.planes * g.h * w, 0.0f);
  for (std::int64_t p = 0; p < g.planes; ++p) {
    float* iplane = gi + p * g.h * w;
    const float* oplane = go + p * oh * ow;
    const std::int32_t* tplane = taps + p * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t x = 0; x < ow; ++x) {
        const std::int64_t tap = tplane[y * ow + x];
        iplane[(y * k + tap / k) * w + x * k + tap % k] =
            0.0f + oplane[y * ow + x];
      }
  }
}

}  // namespace spiketune::snn::pool_kernels
