#include "accel/fx_types.hpp"

#include <stdexcept>
#include <string>

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

void throw_length_mismatch(const char* kernel) {
  throw std::invalid_argument(std::string(kernel) + ": length mismatch");
}

void fx_clear(std::span<Fx> v) noexcept {
  for (Fx& e : v) {
    e = Fx{};
  }
}

}  // namespace mann::accel
