#include "model/quantized.hpp"

#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "model/trainer.hpp"

namespace mann::model {
namespace {

struct Prepared {
  data::TaskDataset dataset;
  MemN2N model;
};

const Prepared& prepared() {
  static const Prepared p = [] {
    data::DatasetConfig dc;
    dc.train_stories = 200;
    dc.test_stories = 60;
    dc.seed = 31;
    data::TaskDataset ds =
        data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
    ModelConfig mc;
    mc.vocab_size = ds.vocab_size();
    mc.embedding_dim = 16;
    mc.hops = 3;
    numeric::Rng rng(77);
    MemN2N net(mc, rng);
    TrainConfig tc;
    tc.epochs = 10;
    train(net, ds.train, tc);
    return Prepared{std::move(ds), std::move(net)};
  }();
  return p;
}

TEST(Quantized, LogitShapesMatch) {
  const Prepared& p = prepared();
  const auto logits =
      quantized_logits<numeric::fx16>(p.model, p.dataset.test[0]);
  EXPECT_EQ(logits.size(), p.model.config().vocab_size);
}

TEST(Quantized, Q16MatchesFloatClosely) {
  const Prepared& p = prepared();
  const QuantizationReport r =
      evaluate_quantized<numeric::fx16>(p.model, p.dataset.test);
  EXPECT_GE(r.argmax_agreement, 0.98);
  EXPECT_LT(r.max_logit_error, 0.05F);
}

TEST(Quantized, ErrorShrinksWithFractionalBits) {
  const Prepared& p = prepared();
  const auto r8 = evaluate_quantized<numeric::fx8>(p.model, p.dataset.test);
  const auto r16 =
      evaluate_quantized<numeric::fx16>(p.model, p.dataset.test);
  const auto r24 =
      evaluate_quantized<numeric::fx24>(p.model, p.dataset.test);
  EXPECT_GT(r8.max_logit_error, r16.max_logit_error);
  EXPECT_GT(r16.max_logit_error, r24.max_logit_error);
}

TEST(Quantized, AgreementMonotoneEnoughAcrossFormats) {
  const Prepared& p = prepared();
  const auto r8 = evaluate_quantized<numeric::fx8>(p.model, p.dataset.test);
  const auto r16 =
      evaluate_quantized<numeric::fx16>(p.model, p.dataset.test);
  EXPECT_GE(r16.argmax_agreement + 1e-9, r8.argmax_agreement);
}

TEST(Quantized, AccuracyTracksFloatAccuracy) {
  const Prepared& p = prepared();
  const float ref = evaluate_accuracy(p.model, p.dataset.test);
  const auto r16 =
      evaluate_quantized<numeric::fx16>(p.model, p.dataset.test);
  EXPECT_NEAR(r16.accuracy, static_cast<double>(ref), 0.04);
}

TEST(Quantized, EmptyDatasetYieldsZeroReport) {
  const Prepared& p = prepared();
  const auto r = evaluate_quantized<numeric::fx16>(p.model, {});
  EXPECT_EQ(r.argmax_agreement, 0.0);
  EXPECT_EQ(r.max_logit_error, 0.0F);
}

TEST(Quantized, MatchesAcceleratorScale) {
  // The device runs Q16.16; the library evaluator at Q16.16 should agree
  // with the float model at least as well as the accelerator test demands
  // (>= 95%).
  const Prepared& p = prepared();
  const auto r = evaluate_quantized<numeric::fx16>(p.model, p.dataset.test);
  EXPECT_GE(r.argmax_agreement, 0.95);
}

}  // namespace
}  // namespace mann::model
