// Vector kernels shared by the float reference model, the trainer, and the
// baseline executors. All kernels take std::span views so callers can pass
// Matrix rows or std::vector storage without copies.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/matrix.hpp"

namespace mann::numeric {

/// Inner product `a · b`. Throws std::invalid_argument on length mismatch.
[[nodiscard]] float dot(std::span<const float> a, std::span<const float> b);

/// `y += scale * x`. Throws std::invalid_argument on length mismatch.
void axpy(float scale, std::span<const float> x, std::span<float> y);

/// `y = M x` (row-major mat-vec). Throws std::invalid_argument on mismatch.
[[nodiscard]] std::vector<float> matvec(const Matrix& m,
                                        std::span<const float> x);

/// `y = Mᵀ x` without materializing the transpose.
/// Throws std::invalid_argument on mismatch.
[[nodiscard]] std::vector<float> matvec_transposed(const Matrix& m,
                                                   std::span<const float> x);

/// Numerically-stable in-place softmax (subtracts the running max).
void softmax_inplace(std::span<float> v);

/// Returns softmax(v) as a new vector.
[[nodiscard]] std::vector<float> softmax(std::span<const float> v);

/// Index of the maximum element. Throws std::invalid_argument when empty.
/// Ties resolve to the lowest index (matches the accelerator's sequential
/// running-max comparator).
[[nodiscard]] std::size_t argmax(std::span<const float> v);

/// Rank-1 update `m += scale * col * rowᵀ` (outer product accumulate);
/// the workhorse of the manual backprop. Throws on shape mismatch.
void add_outer(Matrix& m, std::span<const float> col,
               std::span<const float> row, float scale);

/// Euclidean norm.
[[nodiscard]] float norm2(std::span<const float> v) noexcept;

}  // namespace mann::numeric
