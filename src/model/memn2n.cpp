#include "model/memn2n.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "numeric/vector_ops.hpp"

namespace mann::model {

using numeric::Matrix;

namespace {

/// Softmax of `scores` in place over its `top_k` best entries; every
/// other entry gets exactly zero weight, as in the MEM module's sparse
/// mode. top_k == 0 or top_k >= scores.size() is the dense softmax.
void top_k_softmax(std::vector<float>& scores, std::size_t top_k) {
  const std::size_t n = scores.size();
  if (top_k == 0 || top_k >= n) {
    numeric::softmax_inplace(scores);
    return;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(top_k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return scores[a] > scores[b];
                    });
  const float max_score = scores[order[0]];
  float sum = 0.0F;
  std::vector<float> out(n, 0.0F);
  for (std::size_t r = 0; r < top_k; ++r) {
    const float e = std::exp(scores[order[r]] - max_score);
    out[order[r]] = e;
    sum += e;
  }
  for (std::size_t r = 0; r < top_k; ++r) {
    out[order[r]] /= sum;
  }
  scores = std::move(out);
}

}  // namespace

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

std::vector<float> MemN2N::read_hops(const data::EncodedStory& story,
                                     std::size_t top_k,
                                     ForwardTrace* trace) const {
  Matrix memory_a = embed_memory(story, params_.embedding_a);
  Matrix memory_c = embed_memory(story, params_.embedding_c);
  std::vector<float> k = embed_question(story);
  for (std::size_t hop = 0; hop < config_.hops; ++hop) {
    // Eq. 1: content-based addressing (softmax removed in linear-start
    // training mode).
    std::vector<float> attention = numeric::matvec(memory_a, k);
    if (!linear_attention_) {
      top_k_softmax(attention, top_k);
    }
    // Eq. 5: soft read from content memory.
    std::vector<float> read = numeric::matvec_transposed(memory_c,
                                                         attention);
    // Eq. 4: controller output.
    std::vector<float> h = numeric::matvec(params_.w_r, k);
    numeric::axpy(1.0F, read, std::span<float>(h));
    if (trace != nullptr) {
      trace->k.push_back(std::move(k));
      trace->a.push_back(std::move(attention));
      trace->r.push_back(std::move(read));
      trace->h.push_back(h);
    }
    // Eq. 3, t > 1 branch: next read key is the controller output.
    k = std::move(h);
  }
  if (trace != nullptr) {
    trace->k.push_back(k);
    trace->memory_a = std::move(memory_a);
    trace->memory_c = std::move(memory_c);
  }
  return k;
}

ForwardTrace MemN2N::forward(const data::EncodedStory& story,
                             std::size_t top_k) const {
  if (story.context.empty()) {
    throw std::invalid_argument("MemN2N::forward: story has no context");
  }
  ForwardTrace trace;
  const std::vector<float> h = read_hops(story, top_k, &trace);
  // Eq. 6: output layer.
  trace.logits = numeric::matvec(params_.w_o, h);
  trace.prediction = numeric::argmax(trace.logits);
  return trace;
}

std::vector<float> MemN2N::forward_features(const data::EncodedStory& story,
                                            std::size_t top_k) const {
  return read_hops(story, top_k, nullptr);
}

std::size_t MemN2N::predict(const data::EncodedStory& story) const {
  return forward(story).prediction;
}

}  // namespace mann::model
