// End-to-end memory network (MemN2N) — the MANN of the paper, Eqs. 1-6.
//
// Shapes follow the paper's notation with embeddings stored row-per-word:
//   embedding_a (A):  V x E  — address-memory embedding (Eq. 2 for M_a)
//   embedding_c (C):  V x E  — content-memory embedding (Eq. 2 for M_c)
//   embedding_q (B):  V x E  — question embedding (Eq. 3, k¹ = W_emb_q q)
//   w_r:              E x E  — controller weight (Eq. 4)
//   w_o:              V x E  — output layer, logit z_i = w_o[i,:] · h (Eq. 6)
// with V = |I| the vocabulary/output dimension and E the embedding dim.
// The same A/C/W_r are reused across hops — the recurrent READ path the
// accelerator's blue line implements.
#pragma once

#include <cstddef>
#include <vector>

#include "data/types.hpp"
#include "numeric/matrix.hpp"
#include "numeric/random.hpp"

namespace mann::model {

/// Hyper-parameters of a MemN2N instance.
struct ModelConfig {
  std::size_t vocab_size = 0;      ///< V = |I|
  std::size_t embedding_dim = 20;  ///< E = |E|
  std::size_t hops = 3;            ///< recurrent read hops
  std::size_t max_memory = 50;     ///< L: stories keep the last L sentences
  float init_stddev = 0.1F;        ///< weight init N(0, init_stddev)
};

/// Learnable parameters (also the unit of serialization / gradient).
struct Parameters {
  numeric::Matrix embedding_a;  ///< V x E
  numeric::Matrix embedding_c;  ///< V x E
  numeric::Matrix embedding_q;  ///< V x E
  numeric::Matrix w_r;          ///< E x E
  numeric::Matrix w_o;          ///< V x E

  /// Zero-initialized parameters with the config's shapes.
  static Parameters zeros(const ModelConfig& config);

  /// Gaussian-initialized parameters.
  static Parameters random(const ModelConfig& config, numeric::Rng& rng);

  void add_scaled(const Parameters& other, float scale);
};

/// Everything the forward pass computes, retained for backprop and for the
/// accelerator/golden-model comparison tests.
struct ForwardTrace {
  numeric::Matrix memory_a;            ///< L x E (Eq. 2)
  numeric::Matrix memory_c;            ///< L x E (Eq. 2)
  std::vector<std::vector<float>> k;   ///< hops+1 read keys (Eq. 3)
  std::vector<std::vector<float>> a;   ///< attention per hop (Eq. 1)
  std::vector<std::vector<float>> r;   ///< read vector per hop (Eq. 5)
  std::vector<std::vector<float>> h;   ///< controller output per hop (Eq. 4)
  std::vector<float> logits;           ///< z = W_o h^H (Eq. 6)
  std::size_t prediction = 0;          ///< argmax(z)
};

/// The model: immutable config + mutable parameters + pure forward pass.
class MemN2N {
 public:
  MemN2N(ModelConfig config, Parameters params);

  /// Convenience: random init.
  MemN2N(const ModelConfig& config, numeric::Rng& rng);

  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Parameters& params() const noexcept { return params_; }
  [[nodiscard]] Parameters& params() noexcept { return params_; }

  /// Linear-start mode (Sukhbaatar et al.): the attention softmax of
  /// Eq. 1 is removed (attention = raw scores) during the first training
  /// epochs, which eases optimization on multi-fact tasks. Training-time
  /// only — it is not serialized and the accelerator always runs softmax.
  void set_linear_attention(bool enabled) noexcept {
    linear_attention_ = enabled;
  }
  [[nodiscard]] bool linear_attention() const noexcept {
    return linear_attention_;
  }

  // Both passes take `top_k`, the sparse memory read of the paper's
  // related work (§VI-B, Rae et al. 2016) that AccelConfig's
  // sparse_read_slots mirrors on the device: each hop's softmax keeps
  // only the top_k best-scoring slots and renormalizes over them, while
  // addressing still scores every slot. 0, or top_k >= slots, is the
  // dense softmax.

  /// Full forward pass with trace (Eqs. 1-6).
  [[nodiscard]] ForwardTrace forward(const data::EncodedStory& story,
                                     std::size_t top_k = 0) const;

  /// Forward pass up to (and excluding) the output layer; returns h^H.
  /// This is the "Do forward pass M(x) until output layer" of Algo. 1
  /// Step 4 — inference thresholding takes over from here, so W_o is
  /// never applied.
  [[nodiscard]] std::vector<float> forward_features(
      const data::EncodedStory& story, std::size_t top_k = 0) const;

  /// Predicted label = argmax over all logits.
  [[nodiscard]] std::size_t predict(const data::EncodedStory& story) const;

  /// Number of memory slots a story occupies (min(sentences, L)).
  [[nodiscard]] std::size_t memory_slots(
      const data::EncodedStory& story) const noexcept;

 private:
  /// Builds M (L x E) from sentence bags using `embedding` (Eq. 2).
  [[nodiscard]] numeric::Matrix embed_memory(
      const data::EncodedStory& story,
      const numeric::Matrix& embedding) const;

  /// k¹ from the question bag (Eq. 3, t = 1 branch).
  [[nodiscard]] std::vector<float> embed_question(
      const data::EncodedStory& story) const;

  /// The hop loop every pass shares (Eqs. 1-5): returns h^H. With
  /// `trace`, records the memories and each hop's k, a, r and h.
  [[nodiscard]] std::vector<float> read_hops(const data::EncodedStory& story,
                                             std::size_t top_k,
                                             ForwardTrace* trace) const;

  ModelConfig config_;
  Parameters params_;
  bool linear_attention_ = false;
};

}  // namespace mann::model
