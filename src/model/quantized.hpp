// Quantized MemN2N forward pass, parametric in the fixed-point format.
//
// The authors' companion work (Park et al., "Quantized Memory-Augmented
// Neural Networks", AAAI 2018 — reference [10] of the paper) studies MANN
// inference under quantization; the accelerator itself runs a Q16.16
// datapath. This header provides the float-model-to-fixed-point reference
// evaluator used to pick the datapath format: every operand (embeddings,
// weights, activations) is quantized to FixedPoint<FracBits> and the
// arithmetic follows datapath order. The softmax itself is evaluated
// through float exp/normalize on the quantized scores, matching the
// accelerator's LUT units whose error is separately bounded (see
// numeric::ExpLut::max_abs_error).
#pragma once

#include <cstddef>
#include <vector>

#include "data/types.hpp"
#include "model/memn2n.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/vector_ops.hpp"

namespace mann::model {

/// Full forward pass (Eqs. 1-6) with all operands in Fx.
/// Returns float-valued logits (converted back from Fx) so callers can
/// compare directly against MemN2N::forward.
template <typename Fx>
[[nodiscard]] std::vector<float> quantized_logits(
    const MemN2N& net, const data::EncodedStory& story) {
  const ModelConfig& cfg = net.config();
  const Parameters& p = net.params();
  const std::size_t e = cfg.embedding_dim;
  const std::size_t slots = net.memory_slots(story);
  const std::size_t first = story.context.size() - slots;

  const auto embed_row = [&](const numeric::Matrix& emb, std::size_t w,
                             std::vector<Fx>& acc) {
    for (std::size_t d = 0; d < e; ++d) {
      acc[d] += Fx::from_float(emb(w, d));
    }
  };
  const auto fx_dot_local = [](const std::vector<Fx>& a,
                               const std::vector<Fx>& b) {
    Fx acc{};
    for (std::size_t d = 0; d < a.size(); ++d) {
      acc += a[d] * b[d];
    }
    return acc;
  };

  // Eq. 2: bag-of-words memories in fixed point.
  std::vector<std::vector<Fx>> mem_a(slots, std::vector<Fx>(e));
  std::vector<std::vector<Fx>> mem_c(slots, std::vector<Fx>(e));
  for (std::size_t i = 0; i < slots; ++i) {
    for (const std::int32_t w : story.context[first + i]) {
      embed_row(p.embedding_a, static_cast<std::size_t>(w), mem_a[i]);
      embed_row(p.embedding_c, static_cast<std::size_t>(w), mem_c[i]);
    }
  }
  // Eq. 3 (t = 1).
  std::vector<Fx> k(e);
  for (const std::int32_t w : story.question) {
    embed_row(p.embedding_q, static_cast<std::size_t>(w), k);
  }

  for (std::size_t hop = 0; hop < cfg.hops; ++hop) {
    // Eq. 1 scores in fixed point; softmax on the dequantized scores.
    std::vector<float> scores(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      scores[i] = fx_dot_local(mem_a[i], k).to_float();
    }
    numeric::softmax_inplace(scores);
    // Eq. 5 weighted read with re-quantized attention.
    std::vector<Fx> read(e);
    for (std::size_t i = 0; i < slots; ++i) {
      const Fx a = Fx::from_float(scores[i]);
      for (std::size_t d = 0; d < e; ++d) {
        read[d] += a * mem_c[i][d];
      }
    }
    // Eq. 4 controller.
    std::vector<Fx> h(e);
    for (std::size_t row = 0; row < e; ++row) {
      Fx acc{};
      for (std::size_t d = 0; d < e; ++d) {
        acc += Fx::from_float(p.w_r(row, d)) * k[d];
      }
      h[row] = acc + read[row];
    }
    k = std::move(h);  // Eq. 3 (t > 1)
  }

  // Eq. 6.
  std::vector<float> logits(cfg.vocab_size);
  for (std::size_t cls = 0; cls < cfg.vocab_size; ++cls) {
    Fx acc{};
    for (std::size_t d = 0; d < e; ++d) {
      acc += Fx::from_float(p.w_o(cls, d)) * k[d];
    }
    logits[cls] = acc.to_float();
  }
  return logits;
}

/// Aggregate quantization quality over a dataset.
struct QuantizationReport {
  double argmax_agreement = 0.0;  ///< fraction matching the float argmax
  double accuracy = 0.0;          ///< fraction matching the true answer
  float max_logit_error = 0.0F;   ///< worst |quantized - float| logit
};

template <typename Fx>
[[nodiscard]] QuantizationReport evaluate_quantized(
    const MemN2N& net, const std::vector<data::EncodedStory>& stories) {
  QuantizationReport report;
  if (stories.empty()) {
    return report;
  }
  std::size_t agree = 0;
  std::size_t correct = 0;
  for (const data::EncodedStory& story : stories) {
    const ForwardTrace ref = net.forward(story);
    const auto logits = quantized_logits<Fx>(net, story);
    for (std::size_t i = 0; i < logits.size(); ++i) {
      report.max_logit_error =
          std::max(report.max_logit_error,
                   std::abs(logits[i] - ref.logits[i]));
    }
    const std::size_t pred = numeric::argmax(logits);
    agree += pred == ref.prediction ? 1 : 0;
    correct += pred == static_cast<std::size_t>(story.answer) ? 1 : 0;
  }
  const auto n = static_cast<double>(stories.size());
  report.argmax_agreement = static_cast<double>(agree) / n;
  report.accuracy = static_cast<double>(correct) / n;
  return report;
}

}  // namespace mann::model
