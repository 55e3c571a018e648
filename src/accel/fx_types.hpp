// Fixed-point containers and kernels for the accelerator datapath.
//
// The device stores all weights and architectural registers as Q16.16
// words. Kernels here give the bits of the datapath's sequential
// saturating accumulate. fx_dot sums its rounded products in 64 bits and
// returns that sum when their magnitudes sum to at most 2^31 - 1: then no
// product and no prefix of the sequential sum can saturate, so the two
// agree bit for bit. Otherwise it runs the sequential loop. fx_add and
// fx_axpy saturate without a branch, so at x86-64-v3 and v4 all three
// loops vectorise; at the baseline only fx_add does, since the others'
// 64-bit products and compares need SSE4.
// The kernels run on every datapath event, so they are defined here,
// where the value pass (accel/datapath.cpp) inlines them into one entry
// point per x86-64 level: compiled there at AVX2 or AVX-512 width, they
// give the baseline's bits, since none of them rounds or saturates
// differently at any width. No file is built with -m or -march flags, so
// every out-of-line copy of a kernel is the baseline's. READ's W_r·k
// (Datapath::read_hops) sums the same rounded products for all rows at
// once and keeps fx_dot's condition, Σ|r| ≤ 2^31 - 1, proved ahead of the
// sweep by an L1 bound, and its kWideDotTerms limit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numeric/fixed_point.hpp"
#include "numeric/matrix.hpp"

namespace mann::accel {

using Fx = numeric::fx16;
using FxVector = std::vector<Fx>;

/// Dense row-major fixed-point matrix (device weight storage).
class FxMatrix {
 public:
  FxMatrix() = default;
  FxMatrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] Fx& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] Fx operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<Fx> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const Fx> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Fx> data_;
};

/// Quantizes a float matrix to Q16.16 (round-to-nearest, saturating).
[[nodiscard]] FxMatrix quantize(const numeric::Matrix& m);

/// Throws std::invalid_argument naming `kernel`: its operands' lengths
/// differ.
[[noreturn]] void throw_length_mismatch(const char* kernel);

/// A rounded Q16.16 product is at most 2^46 in magnitude (kRawMin
/// squared, shifted back), so up to this many of them sum in 64 bits.
inline constexpr std::size_t kWideDotTerms = (std::size_t{1} << 17) - 1;

/// Fixed-point dot product: each product rounded by
/// `Fx::rounded_product` and saturated, then accumulated in order with
/// saturation.
[[nodiscard]] inline Fx fx_dot(std::span<const Fx> a, std::span<const Fx> b) {
  if (a.size() != b.size()) {
    throw_length_mismatch("fx_dot");
  }
  if (a.size() <= kWideDotTerms) {
    std::int64_t sum = 0;
    std::int64_t mag = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::int64_t r = Fx::rounded_product(a[i], b[i]);
      sum += r;
      mag += r < 0 ? -r : r;
    }
    if (mag <= Fx::kRawMax) {
      return Fx::from_raw(static_cast<Fx::raw_type>(sum));
    }
  }
  // Some product or prefix may saturate: the sequential loop is exact.
  Fx acc;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

namespace detail {

/// `x + y` saturated as Fx's operator+ does, in 32 bits and without a
/// branch: the wrapped sum overflowed iff both operands share a sign that
/// it lacks, and then the result is the bound of that sign.
[[nodiscard]] inline Fx saturating_add(Fx x, Fx y) noexcept {
  const auto a = static_cast<std::uint32_t>(x.raw());
  const auto b = static_cast<std::uint32_t>(y.raw());
  const std::uint32_t sum = a + b;
  const std::uint32_t overflow = ((a ^ sum) & (b ^ sum)) >> 31;
  const std::uint32_t bound = (a >> 31) + 0x7FFFFFFFU;  // kRawMax or kRawMin
  const std::uint32_t keep = overflow - 1;  // all ones unless overflowed
  return Fx::from_raw(
      static_cast<Fx::raw_type>((sum & keep) | (bound & ~keep)));
}

}  // namespace detail

/// `y[i] += s * x[i]`, saturating as Fx's operators do: the rounded
/// product clamped to 32 bits (operator*), then added under fx_add's
/// overflow rule (operator+).
inline void fx_axpy(Fx s, std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw_length_mismatch("fx_axpy");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t wide =
        std::max<std::int64_t>(Fx::rounded_product(s, x[i]), Fx::kRawMin);
    const auto product =
        static_cast<Fx::raw_type>(std::min<std::int64_t>(wide, Fx::kRawMax));
    y[i] = detail::saturating_add(Fx::from_raw(product), y[i]);
  }
}

/// `y[i] += x[i]`, saturating as Fx's operator+ does.
inline void fx_add(std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw_length_mismatch("fx_add");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = detail::saturating_add(x[i], y[i]);
  }
}

/// Sets every element to zero.
void fx_clear(std::span<Fx> v) noexcept;

}  // namespace mann::accel
