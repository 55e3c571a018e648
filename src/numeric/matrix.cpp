#include "numeric/matrix.hpp"

#include <stdexcept>

namespace mann::numeric {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0F) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Matrix: values size does not match shape");
  }
}

void Matrix::fill(float value) noexcept {
  for (float& v : data_) {
    v = value;
  }
}

void Matrix::resize_zeroed(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0F);
}

void Matrix::add_scaled(const Matrix& other, float scale) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("Matrix::add_scaled: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Matrix::scale(float value) noexcept {
  for (float& v : data_) {
    v *= value;
  }
}

}  // namespace mann::numeric
