// Surrogate gradient functions.
//
// SNNs are trained with backprop-through-time by replacing the derivative of
// the (non-differentiable) Heaviside spike function with a smooth surrogate
// evaluated at the distance from threshold, v = U - theta.  The paper's two
// protagonists are:
//
//   arctangent   (Eq. 3):  S ~ (1/pi) * arctan(pi * U * alpha / 2)
//                          dS/dU = (alpha/2) / (1 + (pi * U * alpha / 2)^2)
//   fast sigmoid (Eq. 4):  S ~ U / (1 + k * |U|)
//                          dS/dU = 1 / (1 + k * |U|)^2
//
// plus four extras that round out the library (sigmoid, triangular, boxcar,
// straight-through).  Surrogate is a value type so the LIF kernel can inline
// the derivative without virtual dispatch in the hot loop.
#pragma once

#include <cmath>
#include <string>

namespace spiketune::snn {

class Surrogate {
 public:
  enum class Kind {
    kArctan,
    kFastSigmoid,
    kSigmoid,
    kTriangular,
    kBoxcar,
    kStraightThrough,
  };

  /// Factories; `scale` is alpha (arctan), k (fast sigmoid / sigmoid /
  /// triangular), or the half-width reciprocal (boxcar).
  static Surrogate arctan(float alpha = 2.0f);
  static Surrogate fast_sigmoid(float k = 25.0f);
  static Surrogate sigmoid(float k = 1.0f);
  static Surrogate triangular(float k = 1.0f);
  static Surrogate boxcar(float k = 2.0f);
  static Surrogate straight_through();

  /// Parses "arctan" | "fast_sigmoid" | "sigmoid" | "triangular" | "boxcar"
  /// | "straight_through"; throws InvalidArgument otherwise.
  static Surrogate by_name(const std::string& name, float scale);

  Kind kind() const { return kind_; }
  float scale() const { return scale_; }
  std::string name() const;

  /// Smooth forward approximation S(v); only used for analysis/plotting —
  /// the spike forward pass always uses the exact Heaviside.
  float forward(float v) const;

  /// Surrogate derivative dS/dv at v = U - theta.  Defined inline below.
  inline float grad(float v) const;

  /// grad() of a kind fixed at compile time, with `scale` as above: the
  /// LIF backward loop instantiates it per kind, so the loop carries no
  /// call or switch per element and can vectorize.
  template <Kind K>
  static inline float grad_of(float v, float scale);

 private:
  Surrogate(Kind kind, float scale);

  Kind kind_;
  float scale_;
};

template <Surrogate::Kind K>
inline float Surrogate::grad_of(float v, float scale) {
  constexpr float kPi = 3.14159265358979323846f;
  if constexpr (K == Kind::kArctan) {
    const float z = kPi * v * scale * 0.5f;
    return (scale * 0.5f) / (1.0f + z * z);
  } else if constexpr (K == Kind::kFastSigmoid) {
    const float d = 1.0f + scale * std::fabs(v);
    return 1.0f / (d * d);
  } else if constexpr (K == Kind::kSigmoid) {
    const float s = 1.0f / (1.0f + std::exp(-scale * v));
    return scale * s * (1.0f - s);
  } else if constexpr (K == Kind::kTriangular) {
    const float z = 1.0f - scale * std::fabs(v);
    return z > 0.0f ? scale * z : 0.0f;
  } else if constexpr (K == Kind::kBoxcar) {
    return std::fabs(v) < 1.0f / scale ? 0.5f * scale : 0.0f;
  } else {
    return 1.0f;
  }
}

inline float Surrogate::grad(float v) const {
  switch (kind_) {
    case Kind::kArctan:
      return grad_of<Kind::kArctan>(v, scale_);
    case Kind::kFastSigmoid:
      return grad_of<Kind::kFastSigmoid>(v, scale_);
    case Kind::kSigmoid:
      return grad_of<Kind::kSigmoid>(v, scale_);
    case Kind::kTriangular:
      return grad_of<Kind::kTriangular>(v, scale_);
    case Kind::kBoxcar:
      return grad_of<Kind::kBoxcar>(v, scale_);
    case Kind::kStraightThrough:
      return grad_of<Kind::kStraightThrough>(v, scale_);
  }
  return 0.0f;
}

}  // namespace spiketune::snn
