// Dense row-major matrix of 32-bit floats.
//
// This is the single dense-linear-algebra container used throughout the
// project: model weights, memory banks (address/content memory of the MANN),
// and gradient buffers are all Matrix instances. It is deliberately small —
// the MANN layers in the paper are tiny (embedding dim ~20, vocabulary
// ~20-200), so cache-blocked kernels would be noise; clarity and bounds
// discipline win.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mann::numeric {

/// Dense row-major matrix of `float`.
///
/// Invariant: `data().size() == rows() * cols()` at all times.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows x cols` matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols);

  /// Creates a matrix from explicit row-major contents.
  /// Throws std::invalid_argument if `values.size() != rows * cols`.
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Unchecked element access (hot paths).
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// View of row `r` (unchecked; `r < rows()` required).
  [[nodiscard]] std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Raw row-major storage.
  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }

  /// Sets every element to `value`.
  void fill(float value) noexcept;

  /// Resizes to `rows x cols`, zeroing all contents.
  void resize_zeroed(std::size_t rows, std::size_t cols);

  /// Element-wise `this += scale * other`.
  /// Throws std::invalid_argument on shape mismatch.
  void add_scaled(const Matrix& other, float scale);

  /// Multiplies every element by `value`.
  void scale(float value) noexcept;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace mann::numeric
