#include "model/memn2n.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "numeric/vector_ops.hpp"

namespace mann::model {
namespace {

ModelConfig tiny_config() {
  ModelConfig c;
  c.vocab_size = 10;
  c.embedding_dim = 4;
  c.hops = 2;
  c.max_memory = 3;
  return c;
}

data::EncodedStory tiny_story() {
  data::EncodedStory s;
  s.context = {{0, 1, 2}, {3, 4}, {5, 1}};
  s.question = {6, 7};
  s.answer = 8;
  return s;
}

TEST(MemN2N, RejectsZeroDimensions) {
  ModelConfig c = tiny_config();
  c.hops = 0;
  numeric::Rng rng(1);
  EXPECT_THROW(MemN2N(c, rng), std::invalid_argument);
}

TEST(MemN2N, RejectsShapeMismatch) {
  const ModelConfig c = tiny_config();
  ModelConfig other = c;
  other.vocab_size = 5;
  numeric::Rng rng(1);
  Parameters wrong = Parameters::random(other, rng);
  EXPECT_THROW(MemN2N(c, std::move(wrong)), std::invalid_argument);
}

TEST(MemN2N, ForwardTraceShapes) {
  numeric::Rng rng(2);
  const MemN2N net(tiny_config(), rng);
  const ForwardTrace t = net.forward(tiny_story());
  EXPECT_EQ(t.memory_a.rows(), 3U);
  EXPECT_EQ(t.memory_a.cols(), 4U);
  EXPECT_EQ(t.k.size(), 3U);  // hops + 1
  EXPECT_EQ(t.a.size(), 2U);
  EXPECT_EQ(t.r.size(), 2U);
  EXPECT_EQ(t.h.size(), 2U);
  EXPECT_EQ(t.logits.size(), 10U);
  EXPECT_LT(t.prediction, 10U);
}

TEST(MemN2N, EmptyStoryThrows) {
  numeric::Rng rng(2);
  const MemN2N net(tiny_config(), rng);
  data::EncodedStory s = tiny_story();
  s.context.clear();
  EXPECT_THROW((void)net.forward(s), std::invalid_argument);
}

TEST(MemN2N, AttentionIsADistribution) {
  numeric::Rng rng(3);
  const MemN2N net(tiny_config(), rng);
  const ForwardTrace t = net.forward(tiny_story());
  for (const auto& hop_attention : t.a) {
    float sum = 0.0F;
    for (const float a : hop_attention) {
      EXPECT_GE(a, 0.0F);
      sum += a;
    }
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
}

TEST(MemN2N, MemoryIsBagOfWordsSum) {
  // Eq. 2: memory row = sum of embedding rows of the sentence's words.
  numeric::Rng rng(4);
  const MemN2N net(tiny_config(), rng);
  const data::EncodedStory s = tiny_story();
  const ForwardTrace t = net.forward(s);
  const auto& emb = net.params().embedding_a;
  for (std::size_t i = 0; i < s.context.size(); ++i) {
    for (std::size_t d = 0; d < 4; ++d) {
      float expected = 0.0F;
      for (const std::int32_t w : s.context[i]) {
        expected += emb(static_cast<std::size_t>(w), d);
      }
      EXPECT_NEAR(t.memory_a(i, d), expected, 1e-6F);
    }
  }
}

TEST(MemN2N, RecurrenceChainsKeyToControllerOutput) {
  // Eq. 3 (t>1): k^{t+1} == h^t.
  numeric::Rng rng(5);
  const MemN2N net(tiny_config(), rng);
  const ForwardTrace t = net.forward(tiny_story());
  for (std::size_t hop = 0; hop < 2; ++hop) {
    ASSERT_EQ(t.k[hop + 1].size(), t.h[hop].size());
    for (std::size_t d = 0; d < t.h[hop].size(); ++d) {
      EXPECT_EQ(t.k[hop + 1][d], t.h[hop][d]);
    }
  }
}

TEST(MemN2N, ControllerEquationHolds) {
  // Eq. 4: h = r + W_r k.
  numeric::Rng rng(6);
  const MemN2N net(tiny_config(), rng);
  const ForwardTrace t = net.forward(tiny_story());
  const auto wk = numeric::matvec(net.params().w_r, t.k[0]);
  for (std::size_t d = 0; d < t.h[0].size(); ++d) {
    EXPECT_NEAR(t.h[0][d], t.r[0][d] + wk[d], 1e-5F);
  }
}

TEST(MemN2N, LogitsAreOutputRowDots) {
  // Eq. 6: z_i = W_o[i,:] · h^H.
  numeric::Rng rng(7);
  const MemN2N net(tiny_config(), rng);
  const ForwardTrace t = net.forward(tiny_story());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(t.logits[i],
                numeric::dot(net.params().w_o.row(i), t.h.back()), 1e-5F);
  }
}

TEST(MemN2N, ForwardFeaturesMatchTrace) {
  numeric::Rng rng(8);
  const MemN2N net(tiny_config(), rng);
  const auto features = net.forward_features(tiny_story());
  const ForwardTrace t = net.forward(tiny_story());
  ASSERT_EQ(features.size(), t.h.back().size());
  for (std::size_t d = 0; d < features.size(); ++d) {
    EXPECT_EQ(features[d], t.h.back()[d]);
  }
}

TEST(MemN2N, MemoryTruncationKeepsMostRecent) {
  // 5 sentences into a 3-slot memory: slots hold the last 3.
  numeric::Rng rng(9);
  const MemN2N net(tiny_config(), rng);
  data::EncodedStory s = tiny_story();
  s.context = {{0}, {1}, {2}, {3}, {4}};
  const ForwardTrace t = net.forward(s);
  ASSERT_EQ(t.memory_a.rows(), 3U);
  const auto& emb = net.params().embedding_a;
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(t.memory_a(0, d), emb(2, d));
    EXPECT_EQ(t.memory_a(2, d), emb(4, d));
  }
  EXPECT_EQ(net.memory_slots(s), 3U);
}

TEST(MemN2N, DeterministicForward) {
  numeric::Rng rng(10);
  const MemN2N net(tiny_config(), rng);
  const ForwardTrace a = net.forward(tiny_story());
  const ForwardTrace b = net.forward(tiny_story());
  EXPECT_EQ(a.logits, b.logits);
  EXPECT_EQ(a.prediction, b.prediction);
}

TEST(Parameters, ZerosAndAddScaled) {
  Parameters p = Parameters::zeros(tiny_config());
  EXPECT_EQ(p.embedding_a.rows(), 10U);
  EXPECT_EQ(p.w_r.rows(), 4U);
  EXPECT_EQ(p.w_o(0, 0), 0.0F);
  for (numeric::Matrix* m :
       {&p.embedding_a, &p.embedding_c, &p.embedding_q, &p.w_r, &p.w_o}) {
    m->fill(2.0F);
  }
  Parameters q = Parameters::zeros(tiny_config());
  q.add_scaled(p, 0.5F);
  EXPECT_EQ(q.embedding_a(9, 3), 1.0F);
  EXPECT_EQ(q.embedding_c(3, 2), 1.0F);
  EXPECT_EQ(q.embedding_q(0, 1), 1.0F);
  EXPECT_EQ(q.w_r(3, 3), 1.0F);
  EXPECT_EQ(q.w_o(0, 0), 1.0F);
}

}  // namespace
}  // namespace mann::model
