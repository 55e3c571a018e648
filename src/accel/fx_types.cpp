#include "accel/fx_types.hpp"

#include <cstdint>
#include <stdexcept>

namespace mann::accel {

FxMatrix::FxMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

FxMatrix quantize(const numeric::Matrix& m) {
  FxMatrix out(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = Fx::from_float(m(r, c));
    }
  }
  return out;
}

Fx fx_dot(std::span<const Fx> a, std::span<const Fx> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("fx_dot: length mismatch");
  }
  // A rounded Q16.16 product is at most 2^46 in magnitude (kRawMin
  // squared, shifted back), so up to this many of them sum in 64 bits.
  constexpr std::size_t kWideTerms = (std::size_t{1} << 17) - 1;
  if (a.size() <= kWideTerms) {
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

void fx_axpy(Fx s, std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("fx_axpy: length mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += s * x[i];
  }
}

void fx_add(std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("fx_add: length mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += x[i];
  }
}

void fx_clear(std::span<Fx> v) noexcept {
  for (Fx& e : v) {
    e = Fx{};
  }
}

}  // namespace mann::accel
