// Floating-point-operation accounting for one MANN inference.
//
// The paper's headline metric is FLOPS/kJ; the FLOP numerator must therefore
// be counted identically across CPU, GPU and FPGA configurations. The
// convention here: multiply and add each count 1, exp and div count 1 each
// (matching how the FPGA realizes them as single LUT/divider operations),
// and the output-layer max-comparisons count 1 each. Inference
// thresholding keeps the same count: the paper reports identical FLOPS
// for both modes at a given workload (ITH trades *comparisons*; the
// numerator the paper keeps is the model's nominal FLOPs).
#pragma once

#include <cstddef>

#include "data/types.hpp"
#include "model/memn2n.hpp"

namespace mann::model {

/// FLOPs of one story inference, broken down by accelerator module.
struct FlopBreakdown {
  std::size_t embedding = 0;   ///< INPUT & WRITE: Eq. 2 accumulations
  std::size_t addressing = 0;  ///< MEM: Eq. 1 dot products + softmax
  std::size_t read = 0;        ///< MEM: Eq. 5 weighted sum
  std::size_t controller = 0;  ///< READ: Eq. 4 matvec + add
  std::size_t output = 0;      ///< OUTPUT: Eq. 6 dots + comparisons

  [[nodiscard]] std::size_t total() const noexcept {
    return embedding + addressing + read + controller + output;
  }
};

/// Full-output-layer count (conventional MIPS over all |I| classes).
[[nodiscard]] FlopBreakdown count_flops(const data::EncodedStory& story,
                                        const ModelConfig& config);

}  // namespace mann::model
