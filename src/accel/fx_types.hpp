// Fixed-point containers and kernels for the accelerator datapath.
//
// The device stores all weights and architectural registers as Q16.16
// words. Kernels here give the bits of the datapath's sequential
// saturating accumulate. fx_dot sums its rounded products in 64 bits and
// returns that sum when their magnitudes sum to at most 2^31 - 1: then no
// product and no prefix of the sequential sum can saturate, so the two
// agree bit for bit. Otherwise it runs the sequential loop.
#pragma once

#include <cstddef>
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

/// Fixed-point dot product: each product rounded by
/// `Fx::rounded_product` and saturated, then accumulated in order with
/// saturation.
[[nodiscard]] Fx fx_dot(std::span<const Fx> a, std::span<const Fx> b);

/// `y[i] += s * x[i]` in fixed point.
void fx_axpy(Fx s, std::span<const Fx> x, std::span<Fx> y);

/// `y[i] += x[i]`.
void fx_add(std::span<const Fx> x, std::span<Fx> y);

/// Sets every element to zero.
void fx_clear(std::span<Fx> v) noexcept;

}  // namespace mann::accel
