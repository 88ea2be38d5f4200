// im2col lowering for 2-D convolution.
//
// Layout conventions (match PyTorch):
//   input   : [C, H, W]                    (single image; batch handled by
//                                           the layer, which loops images)
//   columns : [C*KH*KW, OH*OW]  row-major  (each output position is a column)
// Convolutions in spiketune are stride-1 with optional symmetric zero
// padding, which covers the paper's topology; kernel sizes are arbitrary.
#pragma once

#include <cstdint>

namespace spiketune {

/// Describes one conv geometry; validated by `conv_out_dim`.
struct ConvGeom {
  std::int64_t channels;
  std::int64_t height;
  std::int64_t width;
  std::int64_t kernel_h;
  std::int64_t kernel_w;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;

  std::int64_t out_h() const;
  std::int64_t out_w() const;
  /// C*KH*KW — the GEMM reduction dimension.
  std::int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  /// OH*OW — the GEMM output spatial dimension.
  std::int64_t col_cols() const { return out_h() * out_w(); }
};

/// Computes floor((in + 2*pad - kernel) / stride) + 1; throws if non-positive.
std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t pad, std::int64_t stride);

/// Expands `image` [C,H,W] into `columns` [C*KH*KW, OH*OW].
void im2col(const ConvGeom& g, const float* image, float* columns);

}  // namespace spiketune
