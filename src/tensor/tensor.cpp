#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace spiketune {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.numel()), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  ST_REQUIRE(static_cast<std::int64_t>(data_.size()) == shape_.numel(),
             "data size does not match shape " + shape_.str());
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::normal(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::kaiming_uniform(Shape shape, Rng& rng, std::int64_t fan_in) {
  ST_REQUIRE(fan_in > 0, "kaiming init requires positive fan-in");
  // Matches PyTorch's default Conv/Linear init: U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
  const float bound = 1.0f / std::sqrt(static_cast<float>(fan_in));
  return uniform(std::move(shape), rng, -bound, bound);
}

float& Tensor::at(std::int64_t i) {
  ST_REQUIRE(i >= 0 && i < numel(), "flat index out of bounds");
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  ST_REQUIRE(i >= 0 && i < numel(), "flat index out of bounds");
  return data_[static_cast<std::size_t>(i)];
}

float& Tensor::at(std::initializer_list<std::int64_t> index) {
  return data_[static_cast<std::size_t>(shape_.offset(index))];
}

float Tensor::at(std::initializer_list<std::int64_t> index) const {
  return data_[static_cast<std::size_t>(shape_.offset(index))];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  ST_REQUIRE(new_shape.numel() == numel(),
             "reshape numel mismatch: " + shape_.str() + " -> " +
                 new_shape.str());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

void Tensor::resize(const Shape& shape) {
  shape_ = shape;
  data_.resize(static_cast<std::size_t>(shape_.numel()));
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace spiketune
