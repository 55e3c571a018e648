// Parametric signed fixed-point type used by the accelerator datapath.
//
// The FPGA datapath in the paper streams embedded vectors and weights through
// adder trees, MAC units and an exp/div path; a real implementation would use
// DSP-friendly fixed-point words rather than floats. FixedPoint<F> models a
// 32-bit two's-complement word with F fractional bits, saturating arithmetic
// (what a well-designed RTL datapath does on overflow), and explicit
// rounding-to-nearest on conversion and multiplication. The accelerator
// default is Q16.16 (`fx16`); the precision-ablation bench sweeps F.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

namespace mann::numeric {

/// Signed 32-bit fixed-point value with `FracBits` fractional bits.
/// All arithmetic saturates instead of wrapping.
template <unsigned FracBits>
class FixedPoint {
  static_assert(FracBits > 0 && FracBits < 31,
                "FracBits must leave room for sign and integer bits");

 public:
  using raw_type = std::int32_t;
  using wide_type = std::int64_t;

  static constexpr unsigned kFracBits = FracBits;
  static constexpr raw_type kOne = raw_type{1} << FracBits;
  static constexpr raw_type kRawMax = std::numeric_limits<raw_type>::max();
  static constexpr raw_type kRawMin = std::numeric_limits<raw_type>::min();

  constexpr FixedPoint() = default;

  /// Converts from float with round-to-nearest and saturation. NaN maps
  /// to 0: a word has no NaN, and casting one to an integer is undefined.
  static constexpr FixedPoint from_float(float v) noexcept {
    if (v != v) {
      return FixedPoint();
    }
    const double scaled =
        static_cast<double>(v) * static_cast<double>(kOne);
    return FixedPoint(saturate_to_raw(scaled >= 0.0 ? scaled + 0.5
                                                    : scaled - 0.5));
  }

  /// Wraps an already-scaled raw word.
  static constexpr FixedPoint from_raw(raw_type raw) noexcept {
    return FixedPoint(raw);
  }

  [[nodiscard]] constexpr raw_type raw() const noexcept { return raw_; }

  [[nodiscard]] constexpr float to_float() const noexcept {
    return static_cast<float>(static_cast<double>(raw_) /
                              static_cast<double>(kOne));
  }

  /// Largest / smallest representable values.
  static constexpr FixedPoint max() noexcept { return FixedPoint(kRawMax); }
  static constexpr FixedPoint min() noexcept { return FixedPoint(kRawMin); }

  /// Smallest positive increment.
  static constexpr FixedPoint epsilon() noexcept { return FixedPoint(1); }

  constexpr FixedPoint operator+(FixedPoint other) const noexcept {
    return FixedPoint(saturate_to_raw(static_cast<wide_type>(raw_) +
                                      static_cast<wide_type>(other.raw_)));
  }

  constexpr FixedPoint operator-(FixedPoint other) const noexcept {
    return FixedPoint(saturate_to_raw(static_cast<wide_type>(raw_) -
                                      static_cast<wide_type>(other.raw_)));
  }

  constexpr FixedPoint operator-() const noexcept {
    return FixedPoint(saturate_to_raw(-static_cast<wide_type>(raw_)));
  }

  /// Full-precision multiply then round-to-nearest (half away from zero)
  /// shift back; saturates.
  constexpr FixedPoint operator*(FixedPoint other) const noexcept {
    return FixedPoint(saturate_to_raw(rounded_product(*this, other)));
  }

  /// The datapath's one rounding rule: the full-precision product of `a`
  /// and `b` shifted back to FracBits fractional bits, rounded to nearest
  /// with ties away from zero, before saturation. The arithmetic shift
  /// floors, so a negative product takes one less bias to land on
  /// -floor((|prod| + bias) / 2^F), without a branch on the sign.
  static constexpr wide_type rounded_product(FixedPoint a,
                                             FixedPoint b) noexcept {
    const wide_type prod =
        static_cast<wide_type>(a.raw_) * static_cast<wide_type>(b.raw_);
    const wide_type bias = wide_type{1} << (FracBits - 1);
    return (prod + bias - static_cast<wide_type>(prod < 0)) >> FracBits;
  }

  /// Division; saturates on overflow, returns saturated max/min on
  /// divide-by-zero (mirrors a hardware divider flagging an exception value).
  constexpr FixedPoint operator/(FixedPoint other) const noexcept {
    if (other.raw_ == 0) {
      return raw_ >= 0 ? max() : min();
    }
    const wide_type num = static_cast<wide_type>(raw_) << FracBits;
    return FixedPoint(saturate_to_raw(num / other.raw_));
  }

  constexpr FixedPoint& operator+=(FixedPoint other) noexcept {
    *this = *this + other;
    return *this;
  }
  constexpr FixedPoint& operator-=(FixedPoint other) noexcept {
    *this = *this - other;
    return *this;
  }
  constexpr FixedPoint& operator*=(FixedPoint other) noexcept {
    *this = *this * other;
    return *this;
  }

  friend constexpr bool operator==(FixedPoint, FixedPoint) = default;
  friend constexpr auto operator<=>(FixedPoint a, FixedPoint b) noexcept {
    return a.raw_ <=> b.raw_;
  }

 private:
  constexpr explicit FixedPoint(raw_type raw) noexcept : raw_(raw) {}

  static constexpr raw_type saturate_to_raw(wide_type v) noexcept {
    if (v > static_cast<wide_type>(kRawMax)) {
      return kRawMax;
    }
    if (v < static_cast<wide_type>(kRawMin)) {
      return kRawMin;
    }
    return static_cast<raw_type>(v);
  }

  static constexpr raw_type saturate_to_raw(double v) noexcept {
    if (v >= static_cast<double>(kRawMax)) {
      return kRawMax;
    }
    if (v <= static_cast<double>(kRawMin)) {
      return kRawMin;
    }
    return static_cast<raw_type>(v);
  }

  raw_type raw_ = 0;
};

/// Datapath default: Q16.16 (range ±32768, resolution ~1.5e-5).
using fx16 = FixedPoint<16>;

/// Lower-precision variants for the precision-ablation bench.
using fx8 = FixedPoint<8>;
using fx12 = FixedPoint<12>;
using fx20 = FixedPoint<20>;
using fx24 = FixedPoint<24>;

}  // namespace mann::numeric
