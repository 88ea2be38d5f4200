#include "snn/surrogate.h"

#include <cmath>

#include "core/error.h"

namespace spiketune::snn {

namespace {
constexpr float kPi = 3.14159265358979323846f;
}

Surrogate::Surrogate(Kind kind, float scale) : kind_(kind), scale_(scale) {
  ST_REQUIRE(scale > 0.0f, "surrogate scale must be positive");
}

Surrogate Surrogate::arctan(float alpha) { return {Kind::kArctan, alpha}; }
Surrogate Surrogate::fast_sigmoid(float k) { return {Kind::kFastSigmoid, k}; }
Surrogate Surrogate::sigmoid(float k) { return {Kind::kSigmoid, k}; }
Surrogate Surrogate::triangular(float k) { return {Kind::kTriangular, k}; }
Surrogate Surrogate::boxcar(float k) { return {Kind::kBoxcar, k}; }
Surrogate Surrogate::straight_through() {
  return {Kind::kStraightThrough, 1.0f};
}

Surrogate Surrogate::by_name(const std::string& name, float scale) {
  if (name == "arctan") return arctan(scale);
  if (name == "fast_sigmoid") return fast_sigmoid(scale);
  if (name == "sigmoid") return sigmoid(scale);
  if (name == "triangular") return triangular(scale);
  if (name == "boxcar") return boxcar(scale);
  if (name == "straight_through") return straight_through();
  throw InvalidArgument("unknown surrogate: " + name);
}

std::string Surrogate::name() const {
  switch (kind_) {
    case Kind::kArctan:
      return "arctan";
    case Kind::kFastSigmoid:
      return "fast_sigmoid";
    case Kind::kSigmoid:
      return "sigmoid";
    case Kind::kTriangular:
      return "triangular";
    case Kind::kBoxcar:
      return "boxcar";
    case Kind::kStraightThrough:
      return "straight_through";
  }
  return "?";
}

float Surrogate::forward(float v) const {
  switch (kind_) {
    case Kind::kArctan:
      return std::atan(kPi * v * scale_ * 0.5f) / kPi;
    case Kind::kFastSigmoid:
      return v / (1.0f + scale_ * std::fabs(v));
    case Kind::kSigmoid:
      return 1.0f / (1.0f + std::exp(-scale_ * v));
    case Kind::kTriangular: {
      // Integral of the triangular derivative, clamped.
      const float z = scale_ * v;
      if (z <= -1.0f) return -0.5f;
      if (z >= 1.0f) return 0.5f;
      return z - 0.5f * z * std::fabs(z);
    }
    case Kind::kBoxcar: {
      const float half = 1.0f / scale_;
      if (v <= -half) return -0.5f;
      if (v >= half) return 0.5f;
      return 0.5f * scale_ * v;
    }
    case Kind::kStraightThrough:
      return v;
  }
  return 0.0f;
}

}  // namespace spiketune::snn
