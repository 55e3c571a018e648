#include "core/ith.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "data/dataset.hpp"
#include "model/trainer.hpp"

namespace mann::core {
namespace {

/// Shared fixture: one trained qa1 model + its dataset (training is the
/// slow part, do it once per suite).
class IthFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig dc;
    dc.train_stories = 350;
    dc.test_stories = 100;
    dc.seed = 404;
    dataset_ = new data::TaskDataset(
        data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc));

    model::ModelConfig mc;
    mc.vocab_size = dataset_->vocab_size();
    mc.embedding_dim = 16;
    mc.hops = 3;
    numeric::Rng rng(5);
    model_ = new model::MemN2N(mc, rng);
    model::TrainConfig tc;
    tc.epochs = 15;
    model::train(*model_, dataset_->train, tc);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  static data::TaskDataset* dataset_;
  static model::MemN2N* model_;
};

data::TaskDataset* IthFixture::dataset_ = nullptr;
model::MemN2N* IthFixture::model_ = nullptr;

TEST_F(IthFixture, CalibrationPopulatesAllTables) {
  IthConfig cfg;
  cfg.rho = 1.0F;
  const auto ith =
      InferenceThresholding::calibrate(*model_, dataset_->train, cfg);
  const std::size_t classes = model_->config().vocab_size;
  EXPECT_EQ(ith.thresholds().size(), classes);
  EXPECT_EQ(ith.silhouettes().size(), classes);
  EXPECT_EQ(ith.priors().size(), classes);
  EXPECT_EQ(ith.probe_order().size(), classes);
  EXPECT_GT(ith.active_classes(), 0U);
  EXPECT_LE(ith.active_classes(), classes);
}

TEST_F(IthFixture, PriorsFormDistributionOverLabels) {
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  float sum = 0.0F;
  for (const float p : ith.priors()) {
    EXPECT_GE(p, 0.0F);
    EXPECT_LE(p, 1.0F);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0F, 1e-4F);
}

TEST_F(IthFixture, ProbeOrderIsAPermutationSortedBySilhouette) {
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  const auto& order = ith.probe_order();
  const std::set<std::size_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_GE(ith.silhouettes()[order[i]], ith.silhouettes()[order[i + 1]]);
  }
}

TEST_F(IthFixture, AnswerClassesHaveHighSilhouette) {
  // Classes that actually occur as labels (locations) should rank above
  // classes that never do (e.g. function words like "the").
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  const auto the_id = dataset_->vocab.find("the");
  ASSERT_TRUE(the_id.has_value());
  float best_label_sil = -2.0F;
  for (std::size_t i = 0; i < ith.priors().size(); ++i) {
    if (ith.priors()[i] > 0.0F) {
      best_label_sil = std::max(best_label_sil, ith.silhouettes()[i]);
    }
  }
  EXPECT_GT(best_label_sil,
            ith.silhouettes()[static_cast<std::size_t>(*the_id)]);
}

TEST_F(IthFixture, NonLabelClassesGetNoThreshold) {
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  for (std::size_t i = 0; i < ith.priors().size(); ++i) {
    if (ith.priors()[i] == 0.0F) {
      EXPECT_EQ(ith.thresholds()[i], InferenceThresholding::kNoThreshold);
    }
  }
}

TEST_F(IthFixture, RhoAboveOneDisablesAllThresholds) {
  IthConfig cfg;
  cfg.rho = 1.5F;
  const auto ith =
      InferenceThresholding::calibrate(*model_, dataset_->train, cfg);
  EXPECT_EQ(ith.active_classes(), 0U);
  // Every prediction must then match plain argmax.
  for (const auto& story : dataset_->test) {
    const auto r = ith.predict(*model_, story);
    EXPECT_FALSE(r.early_exit);
    EXPECT_EQ(r.comparisons, model_->config().vocab_size);
    EXPECT_EQ(r.prediction, model_->predict(story));
  }
}

TEST_F(IthFixture, LowerRhoLowersThresholds) {
  IthConfig tight;
  tight.rho = 1.0F;
  IthConfig loose;
  loose.rho = 0.9F;
  const auto t =
      InferenceThresholding::calibrate(*model_, dataset_->train, tight);
  const auto l =
      InferenceThresholding::calibrate(*model_, dataset_->train, loose);
  // Thresholds can only move down (or appear) as rho decreases.
  std::size_t lowered = 0;
  for (std::size_t i = 0; i < t.thresholds().size(); ++i) {
    EXPECT_LE(l.thresholds()[i], t.thresholds()[i]) << "class " << i;
    if (l.thresholds()[i] < t.thresholds()[i]) {
      ++lowered;
    }
  }
  EXPECT_GT(lowered, 0U);
  EXPECT_GE(l.active_classes(), t.active_classes());
}

TEST_F(IthFixture, LowerRhoFewerComparisons) {
  IthConfig tight;
  tight.rho = 1.0F;
  IthConfig loose;
  loose.rho = 0.9F;
  const auto t =
      InferenceThresholding::calibrate(*model_, dataset_->train, tight);
  const auto l =
      InferenceThresholding::calibrate(*model_, dataset_->train, loose);
  std::uint64_t comp_t = 0;
  std::uint64_t comp_l = 0;
  for (const auto& story : dataset_->test) {
    comp_t += t.predict(*model_, story).comparisons;
    comp_l += l.predict(*model_, story).comparisons;
  }
  EXPECT_LT(comp_l, comp_t);
}

TEST_F(IthFixture, IndexOrderingReducesComparisons) {
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  std::uint64_t ordered = 0;
  std::uint64_t natural = 0;
  for (const auto& story : dataset_->test) {
    ordered += ith.predict(*model_, story, true).comparisons;
    natural += ith.predict(*model_, story, false).comparisons;
  }
  EXPECT_LE(ordered, natural);
}

TEST_F(IthFixture, EarlyExitRequiresThresholdCross) {
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  for (const auto& story : dataset_->test) {
    const auto r = ith.predict(*model_, story);
    if (r.early_exit) {
      EXPECT_LT(r.comparisons, model_->config().vocab_size);
    } else {
      EXPECT_EQ(r.comparisons, model_->config().vocab_size);
      // Fallback must agree exactly with plain argmax.
      EXPECT_EQ(r.prediction, model_->predict(story));
    }
  }
}

TEST_F(IthFixture, RhoOneBarelyChangesAccuracy) {
  // The paper sets rho = 1.0 and reports < 0.1% accuracy loss.
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  std::size_t plain_correct = 0;
  std::size_t ith_correct = 0;
  for (const auto& story : dataset_->test) {
    if (model_->predict(story) == static_cast<std::size_t>(story.answer)) {
      ++plain_correct;
    }
    if (ith.predict(*model_, story).prediction ==
        static_cast<std::size_t>(story.answer)) {
      ++ith_correct;
    }
  }
  const auto n = static_cast<float>(dataset_->test.size());
  EXPECT_NEAR(static_cast<float>(ith_correct) / n,
              static_cast<float>(plain_correct) / n, 0.02F);
}

TEST_F(IthFixture, PredictFromFeaturesMatchesPredict) {
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& story = dataset_->test[i];
    const auto features = model_->forward_features(story);
    const auto a = ith.predict(*model_, story);
    const auto b = ith.predict_from_features(*model_, features);
    EXPECT_EQ(a.prediction, b.prediction);
    EXPECT_EQ(a.comparisons, b.comparisons);
    EXPECT_EQ(a.early_exit, b.early_exit);
  }
}

TEST_F(IthFixture, StoredTablesRebuildTheCalibratedPredictor) {
  const auto ith = InferenceThresholding::calibrate(*model_,
                                                    dataset_->train, {});
  const InferenceThresholding rebuilt(ith.config(), ith.thresholds(),
                                      ith.probe_order(), ith.silhouettes(),
                                      ith.priors());
  for (const auto& story : dataset_->test) {
    const auto a = ith.predict(*model_, story);
    const auto b = rebuilt.predict(*model_, story);
    EXPECT_EQ(a.prediction, b.prediction);
    EXPECT_EQ(a.comparisons, b.comparisons);
  }

  // Tables that would index past the output layer are refused.
  std::vector<std::size_t> repeated = ith.probe_order();
  repeated.back() = repeated.front();
  std::vector<std::size_t> out_of_range = ith.probe_order();
  out_of_range.back() = ith.num_classes();
  for (const auto& order : {repeated, out_of_range}) {
    EXPECT_THROW(InferenceThresholding(ith.config(), ith.thresholds(), order,
                                       ith.silhouettes(), ith.priors()),
                 std::invalid_argument);
  }
  std::vector<float> short_priors = ith.priors();
  short_priors.pop_back();
  EXPECT_THROW(InferenceThresholding(ith.config(), ith.thresholds(),
                                     ith.probe_order(), ith.silhouettes(),
                                     short_priors),
               std::invalid_argument);
}

TEST(Ith, UntrainedModelCalibratesConservatively) {
  // An untrained model rarely predicts correctly; most classes should hold
  // no threshold and inference must still be exact (argmax fallback).
  model::ModelConfig mc;
  mc.vocab_size = 15;
  mc.embedding_dim = 4;
  mc.hops = 1;
  numeric::Rng rng(2);
  const model::MemN2N net(mc, rng);
  data::DatasetConfig dc;
  dc.train_stories = 30;
  dc.test_stories = 10;
  const auto ds =
      data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
  // Re-encode impossible: vocab mismatch; instead build tiny stories.
  std::vector<data::EncodedStory> stories;
  for (int i = 0; i < 20; ++i) {
    data::EncodedStory s;
    s.context = {{static_cast<std::int32_t>(i % 10)}};
    s.question = {static_cast<std::int32_t>((i + 1) % 10)};
    s.answer = static_cast<std::int32_t>((i * 3) % 15);
    stories.push_back(s);
  }
  const auto ith = InferenceThresholding::calibrate(net, stories, {});
  for (const auto& story : stories) {
    const auto r = ith.predict(net, story);
    if (!r.early_exit) {
      EXPECT_EQ(r.prediction, net.predict(story));
    }
  }
}

}  // namespace
}  // namespace mann::core
