// Tensor: dense row-major float32 storage with value semantics.
//
// This is deliberately a small, contiguous, single-dtype tensor: the SNN
// training stack only needs float32 and spiketune favours explicit kernels
// (tensor_ops.h, gemm.h) over a general expression system.  Copies are deep;
// moves are cheap (C.61 / C.64).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "tensor/shape.h"

namespace spiketune {

class Tensor {
 public:
  /// Empty tensor (rank-0 scalar containing 0.0f is Tensor({}) — see zeros).
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  /// i.i.d. uniform in [lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);
  /// i.i.d. normal(mean, stddev).
  static Tensor normal(Shape shape, Rng& rng, float mean, float stddev);
  /// Kaiming-uniform init for a weight with the given fan-in.
  static Tensor kaiming_uniform(Shape shape, Rng& rng, std::int64_t fan_in);

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Bounds-checked flat access.
  float& at(std::int64_t i);
  float at(std::int64_t i) const;

  /// Unchecked flat access for hot loops.
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Multi-index access (bounds-checked through Shape::offset).
  float& at(std::initializer_list<std::int64_t> index);
  float at(std::initializer_list<std::int64_t> index) const;

  /// Returns a tensor with the same data and a new shape of equal numel.
  Tensor reshaped(Shape new_shape) const;

  /// Gives the tensor `shape` in place.  Storage is kept when its capacity
  /// suffices, so reusing a buffer at the same or a smaller size allocates
  /// nothing.  Kept elements keep their values and new ones are zero: a
  /// caller that does not overwrite every element fills first.
  void resize(const Shape& shape);

  /// Elements the storage holds without reallocating.
  std::int64_t capacity() const {
    return static_cast<std::int64_t>(data_.capacity());
  }

  /// Sets every element to `value`.
  void fill(float value);

  bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace spiketune
