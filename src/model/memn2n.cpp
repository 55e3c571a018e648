#include "model/memn2n.hpp"

#include <stdexcept>

#include "numeric/vector_ops.hpp"

namespace mann::model {

using numeric::Matrix;

Parameters Parameters::zeros(const ModelConfig& config) {
  Parameters p;
  p.embedding_a.resize_zeroed(config.vocab_size, config.embedding_dim);
  p.embedding_c.resize_zeroed(config.vocab_size, config.embedding_dim);
  p.embedding_q.resize_zeroed(config.vocab_size, config.embedding_dim);
  p.w_r.resize_zeroed(config.embedding_dim, config.embedding_dim);
  p.w_o.resize_zeroed(config.vocab_size, config.embedding_dim);
  return p;
}

Parameters Parameters::random(const ModelConfig& config, numeric::Rng& rng) {
  Parameters p = zeros(config);
  for (Matrix* m : {&p.embedding_a, &p.embedding_c, &p.embedding_q, &p.w_r,
                    &p.w_o}) {
    for (float& v : m->data()) {
      v = rng.normal(0.0F, config.init_stddev);
    }
  }
  return p;
}

void Parameters::add_scaled(const Parameters& other, float scale) {
  embedding_a.add_scaled(other.embedding_a, scale);
  embedding_c.add_scaled(other.embedding_c, scale);
  embedding_q.add_scaled(other.embedding_q, scale);
  w_r.add_scaled(other.w_r, scale);
  w_o.add_scaled(other.w_o, scale);
}

MemN2N::MemN2N(ModelConfig config, Parameters params)
    : config_(config), params_(std::move(params)) {
  if (config_.vocab_size == 0 || config_.embedding_dim == 0 ||
      config_.hops == 0 || config_.max_memory == 0) {
    throw std::invalid_argument("MemN2N: all config dimensions must be > 0");
  }
  if (params_.embedding_a.rows() != config_.vocab_size ||
      params_.embedding_a.cols() != config_.embedding_dim) {
    throw std::invalid_argument("MemN2N: parameter shape mismatch");
  }
}

MemN2N::MemN2N(const ModelConfig& config, numeric::Rng& rng)
    : MemN2N(config, Parameters::random(config, rng)) {}

std::size_t MemN2N::memory_slots(
    const data::EncodedStory& story) const noexcept {
  return std::min(story.context.size(), config_.max_memory);
}

Matrix MemN2N::embed_memory(const data::EncodedStory& story,
                            const Matrix& embedding) const {
  const std::size_t slots = memory_slots(story);
  // Keep the *last* L sentences (recency truncation, as in MemN2N).
  const std::size_t first = story.context.size() - slots;
  Matrix memory(slots, config_.embedding_dim);
  for (std::size_t i = 0; i < slots; ++i) {
    auto row = memory.row(i);
    for (const std::int32_t word : story.context[first + i]) {
      numeric::axpy(1.0F, embedding.row(static_cast<std::size_t>(word)), row);
    }
  }
  return memory;
}

std::vector<float> MemN2N::embed_question(
    const data::EncodedStory& story) const {
  std::vector<float> k(config_.embedding_dim, 0.0F);
  for (const std::int32_t word : story.question) {
    numeric::axpy(1.0F, params_.embedding_q.row(static_cast<std::size_t>(word)),
                  std::span<float>(k));
  }
  return k;
}

ForwardTrace MemN2N::forward(const data::EncodedStory& story) const {
  if (story.context.empty()) {
    throw std::invalid_argument("MemN2N::forward: story has no context");
  }
  ForwardTrace trace;
  trace.memory_a = embed_memory(story, params_.embedding_a);
  trace.memory_c = embed_memory(story, params_.embedding_c);
  trace.k.push_back(embed_question(story));

  for (std::size_t hop = 0; hop < config_.hops; ++hop) {
    const std::vector<float>& k = trace.k.back();
    // Eq. 1: content-based addressing (softmax removed in linear-start
    // training mode).
    std::vector<float> attention = numeric::matvec(trace.memory_a, k);
    if (!linear_attention_) {
      numeric::softmax_inplace(attention);
    }
    // Eq. 5: soft read from content memory.
    std::vector<float> read = numeric::matvec_transposed(trace.memory_c,
                                                         attention);
    // Eq. 4: controller output.
    std::vector<float> h = numeric::matvec(params_.w_r, k);
    numeric::axpy(1.0F, read, std::span<float>(h));
    trace.a.push_back(std::move(attention));
    trace.r.push_back(std::move(read));
    trace.h.push_back(h);
    // Eq. 3, t > 1 branch: next read key is the controller output.
    trace.k.push_back(std::move(h));
  }

  // Eq. 6: output layer.
  trace.logits = numeric::matvec(params_.w_o, trace.h.back());
  trace.prediction = numeric::argmax(trace.logits);
  return trace;
}

std::vector<float> MemN2N::forward_features(
    const data::EncodedStory& story) const {
  // Same as forward() but stops before W_o; kept separate so the ITH
  // runtime cost model can meter it independently.
  const Matrix memory_a = embed_memory(story, params_.embedding_a);
  const Matrix memory_c = embed_memory(story, params_.embedding_c);
  std::vector<float> k = embed_question(story);
  for (std::size_t hop = 0; hop < config_.hops; ++hop) {
    std::vector<float> attention = numeric::matvec(memory_a, k);
    if (!linear_attention_) {
      numeric::softmax_inplace(attention);
    }
    std::vector<float> read = numeric::matvec_transposed(memory_c, attention);
    std::vector<float> h = numeric::matvec(params_.w_r, k);
    numeric::axpy(1.0F, read, std::span<float>(h));
    k = std::move(h);
  }
  return k;
}

std::size_t MemN2N::predict(const data::EncodedStory& story) const {
  return forward(story).prediction;
}

}  // namespace mann::model
