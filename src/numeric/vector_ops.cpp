#include "numeric/vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mann::numeric {

float dot(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: length mismatch");
  }
  float acc = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

void axpy(float scale, std::span<const float> x, std::span<float> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("axpy: length mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += scale * x[i];
  }
}

std::vector<float> matvec(const Matrix& m, std::span<const float> x) {
  if (m.cols() != x.size()) {
    throw std::invalid_argument("matvec: shape mismatch");
  }
  std::vector<float> y(m.rows(), 0.0F);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    y[r] = dot(m.row(r), x);
  }
  return y;
}

std::vector<float> matvec_transposed(const Matrix& m,
                                     std::span<const float> x) {
  if (m.rows() != x.size()) {
    throw std::invalid_argument("matvec_transposed: shape mismatch");
  }
  std::vector<float> y(m.cols(), 0.0F);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    axpy(x[r], m.row(r), y);
  }
  return y;
}

void softmax_inplace(std::span<float> v) {
  if (v.empty()) {
    return;
  }
  const float max_v = *std::max_element(v.begin(), v.end());
  float sum = 0.0F;
  for (float& e : v) {
    e = std::exp(e - max_v);
    sum += e;
  }
  for (float& e : v) {
    e /= sum;
  }
}

std::vector<float> softmax(std::span<const float> v) {
  std::vector<float> out(v.begin(), v.end());
  softmax_inplace(out);
  return out;
}

std::size_t argmax(std::span<const float> v) {
  if (v.empty()) {
    throw std::invalid_argument("argmax: empty input");
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) {
      best = i;
    }
  }
  return best;
}

void add_outer(Matrix& m, std::span<const float> col,
               std::span<const float> row, float scale) {
  if (m.rows() != col.size() || m.cols() != row.size()) {
    throw std::invalid_argument("add_outer: shape mismatch");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    axpy(scale * col[r], row, m.row(r));
  }
}

float norm2(std::span<const float> v) noexcept {
  float acc = 0.0F;
  for (float e : v) {
    acc += e * e;
  }
  return std::sqrt(acc);
}

}  // namespace mann::numeric
