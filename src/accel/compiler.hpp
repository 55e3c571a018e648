// Model "compiler": converts a trained float MemN2N (plus optional ITH
// calibration) into the quantized tables the device holds in BRAM.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/fx_types.hpp"
#include "core/ith.hpp"
#include "model/memn2n.hpp"

namespace mann::accel {

/// Everything resident on the device after model load.
struct DeviceProgram {
  // Dimensions (V = vocab/output size, E = embedding dim, hops).
  std::size_t vocab_size = 0;
  std::size_t embedding_dim = 0;
  std::size_t hops = 0;
  std::size_t max_memory = 0;

  // Quantized weights (Q16.16), row-per-word layout as in the float model.
  FxMatrix emb_a;
  FxMatrix emb_c;
  FxMatrix emb_q;
  FxMatrix w_r;
  FxMatrix w_o;

  // Inference-thresholding tables (empty when not calibrated).
  std::vector<Fx> thresholds;            ///< θ_i; saturated max = "never"
  std::vector<std::int32_t> probe_order; ///< silhouette-sorted class order

  /// Number of 32-bit words the trained model occupies on the wire
  /// (weights + ITH tables); drives the model-load phase of the stream.
  [[nodiscard]] std::size_t model_words() const noexcept;

  [[nodiscard]] bool has_ith_tables() const noexcept {
    return !thresholds.empty();
  }
};

/// Throws std::invalid_argument for a program the device would read past:
/// vocab_size and embedding_dim must be at least 1, vocab_size must equal
/// the rows of W_o and of the three embedding tables, every matrix must be
/// embedding_dim wide, W_r square, hops and max_memory at least 1, and ITH
/// tables, when present, must hold vocab_size thresholds and a probe order
/// that is a permutation of the classes. DatapathTables' constructor
/// calls it, so no table is built for such a program.
void validate_program(const DeviceProgram& program);

/// Quantizes a trained model (and optional ITH calibration) for the device.
/// Classes whose calibrated threshold is +inf get the saturated fx maximum,
/// which no Q16.16 logit can exceed — hardware's "never fires" encoding.
[[nodiscard]] DeviceProgram compile_model(
    const model::MemN2N& model,
    const core::InferenceThresholding* ith = nullptr);

}  // namespace mann::accel
