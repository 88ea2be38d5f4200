#include "tensor/im2col.h"

#include "core/error.h"
#include "core/parallel.h"
#include "obs/profiler.h"

namespace spiketune {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t pad, std::int64_t stride) {
  ST_REQUIRE(in > 0 && kernel > 0 && stride > 0 && pad >= 0,
             "conv geometry must be positive (pad may be zero)");
  const std::int64_t out = (in + 2 * pad - kernel) / stride + 1;
  ST_REQUIRE(out > 0, "conv output dimension is non-positive");
  return out;
}

std::int64_t ConvGeom::out_h() const {
  return conv_out_dim(height, kernel_h, pad_h, stride_h);
}

std::int64_t ConvGeom::out_w() const {
  return conv_out_dim(width, kernel_w, pad_w, stride_w);
}

void im2col(const ConvGeom& g, const float* image, float* columns) {
  ST_PROF_SCOPE("im2col");
  ST_REQUIRE(image != nullptr && columns != nullptr, "im2col null pointer");
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t kk = g.kernel_h * g.kernel_w;
  // Each column row (c, kh, kw) writes a disjoint [oh*ow] stripe, so rows
  // partition freely across threads without changing any value.
  parallel_for(0, g.col_rows(), 1, [&](std::int64_t rb, std::int64_t re) {
    for (std::int64_t row = rb; row < re; ++row) {
      const std::int64_t c = row / kk;
      const std::int64_t kh = (row % kk) / g.kernel_w;
      const std::int64_t kw = row % g.kernel_w;
      const float* plane = image + c * g.height * g.width;
      float* out = columns + row * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        const std::int64_t sy = y * g.stride_h + kh - g.pad_h;
        if (sy < 0 || sy >= g.height) {
          for (std::int64_t x = 0; x < ow; ++x) out[y * ow + x] = 0.0f;
          continue;
        }
        const float* src = plane + sy * g.width;
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int64_t sx = x * g.stride_w + kw - g.pad_w;
          out[y * ow + x] =
              (sx >= 0 && sx < g.width) ? src[sx] : 0.0f;
        }
      }
    }
  });
}

}  // namespace spiketune
