#include "model/trainer.hpp"

#include <cmath>
#include <span>

#include "numeric/vector_ops.hpp"

namespace mann::model {

using numeric::Matrix;

ExampleGradients backward(const MemN2N& model,
                          const data::EncodedStory& story) {
  const ModelConfig& cfg = model.config();
  const Parameters& params = model.params();
  const ForwardTrace trace = model.forward(story);
  const std::size_t hops = cfg.hops;
  const std::size_t slots = model.memory_slots(story);
  const std::size_t first = story.context.size() - slots;

  ExampleGradients out;
  out.grads = Parameters::zeros(cfg);
  const auto label = static_cast<std::size_t>(story.answer);
  out.correct = trace.prediction == label;

  // Softmax cross-entropy at the output layer.
  std::vector<float> dz = numeric::softmax(trace.logits);
  out.loss = -std::log(std::max(dz[label], 1e-12F));
  dz[label] -= 1.0F;

  // Eq. 6 backward: z = W_o h^H.
  numeric::add_outer(out.grads.w_o, dz, trace.h.back(), 1.0F);
  std::vector<float> dh = numeric::matvec_transposed(params.w_o, dz);

  // Memory gradients accumulate across hops, then scatter into embeddings.
  Matrix d_memory_a(slots, cfg.embedding_dim);
  Matrix d_memory_c(slots, cfg.embedding_dim);

  for (std::size_t hop = hops; hop-- > 0;) {
    const std::vector<float>& k = trace.k[hop];
    const std::vector<float>& attention = trace.a[hop];

    // Eq. 4 backward: h = r + W_r k.
    const std::vector<float>& dr = dh;  // dh flows into r unchanged
    numeric::add_outer(out.grads.w_r, dh, k, 1.0F);
    std::vector<float> dk = numeric::matvec_transposed(params.w_r, dh);

    // Eq. 5 backward: r = M_cᵀ a.
    numeric::add_outer(d_memory_c, attention, dr, 1.0F);
    std::vector<float> da = numeric::matvec(trace.memory_c, dr);

    // Eq. 1 backward: through the softmax Jacobian, or the identity in
    // linear-start mode (where attention == raw scores).
    std::vector<float> ds(attention.size());
    if (model.linear_attention()) {
      ds.assign(da.begin(), da.end());
    } else {
      const float dot_ada = numeric::dot(attention, da);
      for (std::size_t i = 0; i < ds.size(); ++i) {
        ds[i] = attention[i] * (da[i] - dot_ada);
      }
    }

    // s = M_a k backward.
    numeric::add_outer(d_memory_a, ds, k, 1.0F);
    numeric::axpy(1.0F, numeric::matvec_transposed(trace.memory_a, ds),
                  std::span<float>(dk));

    // Eq. 3: k^{t+1} = h^t chains the key gradient into the previous hop.
    dh = std::move(dk);
  }

  // Scatter memory gradients into the embedding tables (Eq. 2 backward:
  // each word of sentence i contributed one embedding row to memory row i).
  for (std::size_t i = 0; i < slots; ++i) {
    for (const std::int32_t word : story.context[first + i]) {
      const auto w = static_cast<std::size_t>(word);
      numeric::axpy(1.0F, d_memory_a.row(i), out.grads.embedding_a.row(w));
      numeric::axpy(1.0F, d_memory_c.row(i), out.grads.embedding_c.row(w));
    }
  }
  // Question embedding (Eq. 3, t = 1): k¹ = Σ B rows.
  for (const std::int32_t word : story.question) {
    numeric::axpy(1.0F, dh,
                  out.grads.embedding_q.row(static_cast<std::size_t>(word)));
  }
  return out;
}

float evaluate_accuracy(const MemN2N& model,
                        const std::vector<data::EncodedStory>& stories,
                        std::size_t top_k) {
  if (stories.empty()) {
    return 0.0F;
  }
  std::size_t correct = 0;
  for (const data::EncodedStory& s : stories) {
    if (model.forward(s, top_k).prediction ==
        static_cast<std::size_t>(s.answer)) {
      ++correct;
    }
  }
  return static_cast<float>(correct) / static_cast<float>(stories.size());
}

namespace {

/// Global-norm clip across all parameter matrices.
void clip_global_norm(Parameters& grads, float max_norm) {
  double sq = 0.0;
  for (const Matrix* m : {&grads.embedding_a, &grads.embedding_c,
                          &grads.embedding_q, &grads.w_r, &grads.w_o}) {
    for (const float v : m->data()) {
      sq += static_cast<double>(v) * v;
    }
  }
  const auto norm = static_cast<float>(std::sqrt(sq));
  if (norm <= max_norm || norm == 0.0F) {
    return;
  }
  const float s = max_norm / norm;
  for (Matrix* m : {&grads.embedding_a, &grads.embedding_c,
                    &grads.embedding_q, &grads.w_r, &grads.w_o}) {
    m->scale(s);
  }
}

}  // namespace

std::vector<EpochStats> train(MemN2N& model,
                              const std::vector<data::EncodedStory>& stories,
                              const TrainConfig& config) {
  std::vector<EpochStats> history;
  if (stories.empty()) {
    return history;
  }
  numeric::Rng shuffle_rng(config.shuffle_seed);
  std::vector<std::size_t> order(stories.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }

  float lr = config.learning_rate;
  for (std::size_t epoch = 1; epoch <= config.epochs; ++epoch) {
    model.set_linear_attention(epoch <= config.linear_start_epochs);
    if (config.anneal_every > 0 && epoch > 1 &&
        (epoch - 1) % config.anneal_every == 0) {
      lr *= config.anneal_factor;
    }
    shuffle_rng.shuffle(std::span<std::size_t>(order));

    double loss_sum = 0.0;
    std::size_t correct = 0;
    for (const std::size_t idx : order) {
      ExampleGradients eg = backward(model, stories[idx]);
      clip_global_norm(eg.grads, config.max_grad_norm);
      model.params().add_scaled(eg.grads, -lr);
      loss_sum += eg.loss;
      correct += eg.correct ? 1 : 0;
    }
    EpochStats st;
    st.epoch = epoch;
    st.mean_loss =
        static_cast<float>(loss_sum / static_cast<double>(stories.size()));
    st.train_accuracy =
        static_cast<float>(correct) / static_cast<float>(stories.size());
    st.learning_rate = lr;
    history.push_back(st);
  }
  model.set_linear_attention(false);  // inference always uses softmax
  return history;
}

}  // namespace mann::model
