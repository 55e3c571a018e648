#include "accel/accelerator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/host_link.hpp"
#include "accel/service_cycle_cache.hpp"
#include "accel/stream.hpp"
#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/trainer.hpp"
#include "numeric/random.hpp"
#include "run_results_equal.hpp"

namespace mann::accel {
namespace {

/// One trained model + dataset + compiled programs, shared by the suite
/// (training once keeps the test binary fast).
class AcceleratorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig dc;
    dc.train_stories = 300;
    dc.test_stories = 60;
    dc.seed = 99;
    dataset_ = new data::TaskDataset(
        data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc));

    model::ModelConfig mc;
    mc.vocab_size = dataset_->vocab_size();
    mc.embedding_dim = 16;
    mc.hops = 3;
    numeric::Rng rng(12);
    model_ = new model::MemN2N(mc, rng);
    model::TrainConfig tc;
    tc.epochs = 12;
    model::train(*model_, dataset_->train, tc);

    ith_ = new core::InferenceThresholding(
        core::InferenceThresholding::calibrate(*model_, dataset_->train,
                                               {}));
  }

  static void TearDownTestSuite() {
    delete ith_;
    delete model_;
    delete dataset_;
    ith_ = nullptr;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  static AccelConfig base_config(double clock_hz = 100.0e6) {
    AccelConfig cfg;
    cfg.clock_hz = clock_hz;
    return cfg;
  }

  static std::span<const data::EncodedStory> test_slice(std::size_t n) {
    return {dataset_->test.data(), std::min(n, dataset_->test.size())};
  }

  static data::TaskDataset* dataset_;
  static model::MemN2N* model_;
  static core::InferenceThresholding* ith_;
};

data::TaskDataset* AcceleratorFixture::dataset_ = nullptr;
model::MemN2N* AcceleratorFixture::model_ = nullptr;
core::InferenceThresholding* AcceleratorFixture::ith_ = nullptr;

TEST_F(AcceleratorFixture, PredictionsMatchFloatReference) {
  const Accelerator device(base_config(), compile_model(*model_));
  const RunResult run = device.run(test_slice(40));
  ASSERT_EQ(run.stories.size(), 40U);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < run.stories.size(); ++i) {
    const auto ref = model_->predict(dataset_->test[i]);
    if (run.stories[i].prediction == static_cast<std::int32_t>(ref)) {
      ++agree;
    }
  }
  // Q16.16 quantization may flip rare near-ties; demand >= 95% agreement.
  EXPECT_GE(agree, 38U);
}

TEST_F(AcceleratorFixture, WithoutIthEveryClassIsProbed) {
  const Accelerator device(base_config(), compile_model(*model_));
  const RunResult run = device.run(test_slice(10));
  for (const StoryOutcome& s : run.stories) {
    EXPECT_EQ(s.output_probes, dataset_->vocab_size());
    EXPECT_FALSE(s.early_exit);
  }
}

TEST_F(AcceleratorFixture, IthReducesProbes) {
  AccelConfig cfg = base_config();
  cfg.ith_enabled = true;
  const Accelerator device(cfg, compile_model(*model_, ith_));
  const RunResult run = device.run(test_slice(40));
  EXPECT_LT(run.mean_output_probes(),
            static_cast<double>(dataset_->vocab_size()));
  EXPECT_GT(run.early_exit_rate(), 0.0);
}

TEST_F(AcceleratorFixture, IthAgreesWithSoftwareIth) {
  AccelConfig cfg = base_config();
  cfg.ith_enabled = true;
  const Accelerator device(cfg, compile_model(*model_, ith_));
  const RunResult run = device.run(test_slice(30));
  std::size_t agree = 0;
  for (std::size_t i = 0; i < run.stories.size(); ++i) {
    const auto sw = ith_->predict(*model_, dataset_->test[i]);
    if (run.stories[i].prediction ==
        static_cast<std::int32_t>(sw.prediction)) {
      ++agree;
    }
  }
  EXPECT_GE(agree, 28U);  // fixed-point tolerance
}

TEST_F(AcceleratorFixture, IthEnabledWithoutTablesThrows) {
  AccelConfig cfg = base_config();
  cfg.ith_enabled = true;
  EXPECT_THROW(Accelerator(cfg, compile_model(*model_)),
               std::invalid_argument);
}

TEST_F(AcceleratorFixture, HigherClockFewerSecondsButSublinear) {
  const DeviceProgram prog = compile_model(*model_);
  const Accelerator slow(base_config(25.0e6), prog);
  const Accelerator fast(base_config(100.0e6), prog);
  const auto r_slow = slow.run(test_slice(30));
  const auto r_fast = fast.run(test_slice(30));
  EXPECT_LT(r_fast.seconds, r_slow.seconds);
  // 4x clock must give < 4x speedup: the host link does not scale...
  EXPECT_LT(r_slow.seconds / r_fast.seconds, 3.9);
  EXPECT_GT(r_slow.seconds / r_fast.seconds, 1.02);
  // ...which shows up as *more* cycles burned at the higher clock (the
  // clock-independent I/O term occupies more fabric cycles).
  EXPECT_GT(r_fast.total_cycles, r_slow.total_cycles);
}

TEST_F(AcceleratorFixture, IthSavesComputeCyclesAtFixedClock) {
  // Compare pure compute by making the link effectively infinite: the
  // remaining cycles are datapath work, which ITH must reduce.
  AccelConfig cfg = base_config(25.0e6);
  cfg.link.words_per_second = 1.0e12;
  cfg.link.per_story_latency = 0.0;
  cfg.link.result_latency = 0.0;
  const Accelerator plain(cfg, compile_model(*model_));
  cfg.ith_enabled = true;
  const Accelerator with_ith(cfg, compile_model(*model_, ith_));
  const auto r_plain = plain.run(test_slice(40));
  const auto r_ith = with_ith.run(test_slice(40));
  EXPECT_LT(r_ith.total_cycles, r_plain.total_cycles);
  // The saving comes from the OUTPUT module doing fewer probes.
  EXPECT_LT(r_ith.mean_output_probes(), r_plain.mean_output_probes());
}

TEST_F(AcceleratorFixture, ModuleStatsAreConsistent) {
  const Accelerator device(base_config(), compile_model(*model_));
  const RunResult run = device.run(test_slice(20));
  ASSERT_EQ(run.modules.size(), 6U);
  // Every module except possibly CONTROL ticked busy at least once.
  for (const ModuleReport& m : run.modules) {
    EXPECT_GT(m.stats.busy_cycles, 0U) << m.name;
    EXPECT_LE(m.stats.busy_cycles + m.stats.stall_cycles, run.total_cycles)
        << m.name;
  }
  // The datapath did real arithmetic.
  EXPECT_GT(run.total_ops.mac, 0U);
  EXPECT_GT(run.total_ops.exp, 0U);
  EXPECT_GT(run.total_ops.div, 0U);
  EXPECT_GT(run.total_ops.compare, 0U);
}

TEST_F(AcceleratorFixture, FifoStatsShowTraffic) {
  const Accelerator device(base_config(), compile_model(*model_));
  const RunResult run = device.run(test_slice(10));
  EXPECT_GT(run.fifo_in_stats.pushes, 0U);
  EXPECT_EQ(run.fifo_in_stats.pushes, run.fifo_in_stats.pops);
  EXPECT_EQ(run.fifo_out_stats.pushes, 10U);
  EXPECT_EQ(run.fifo_out_stats.pops, 10U);
}

TEST_F(AcceleratorFixture, StreamWordsAccountedOnce) {
  const DeviceProgram prog = compile_model(*model_);
  const Accelerator device(base_config(), prog);
  const RunResult run = device.run(test_slice(5));
  const std::size_t expected =
      prog.model_words() +
      encode_workload(story_pointers(test_slice(5))).size();
  EXPECT_EQ(run.stream_words, expected);
  EXPECT_EQ(run.fifo_in_stats.pushes, expected);
}

TEST_F(AcceleratorFixture, FinishCyclesAreMonotone) {
  const Accelerator device(base_config(), compile_model(*model_));
  const RunResult run = device.run(test_slice(8));
  for (std::size_t i = 1; i < run.stories.size(); ++i) {
    EXPECT_GT(run.stories[i].finish_cycle, run.stories[i - 1].finish_cycle);
  }
}

TEST_F(AcceleratorFixture, DeterministicAcrossRuns) {
  const Accelerator device(base_config(), compile_model(*model_));
  const RunResult a = device.run(test_slice(10));
  const RunResult b = device.run(test_slice(10));
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.stories[i].prediction, b.stories[i].prediction);
  }
}

TEST_F(AcceleratorFixture, EmptyWorkloadCompletesAfterModelLoad) {
  const Accelerator device(base_config(), compile_model(*model_));
  const RunResult run = device.run(std::span<const data::EncodedStory>{});
  EXPECT_TRUE(run.stories.empty());
  EXPECT_EQ(run.total_cycles, 0U);  // done predicate true immediately
}

TEST_F(AcceleratorFixture, NarrowLanesCostMoreCycles) {
  AccelConfig narrow = base_config();
  narrow.timing.lane_width = 2;
  AccelConfig wide = base_config();
  wide.timing.lane_width = 16;
  // Compare pure compute by making the link very fast.
  narrow.link.words_per_second = 1.0e12;
  wide.link.words_per_second = 1.0e12;
  const DeviceProgram prog = compile_model(*model_);
  const auto n = Accelerator(narrow, prog).run(test_slice(10));
  const auto w = Accelerator(wide, prog).run(test_slice(10));
  EXPECT_GT(n.total_cycles, w.total_cycles);
}

/// Each story's prediction, output probes and early exit agree.
void expect_same_answers(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.stories.size(), b.stories.size());
  for (std::size_t i = 0; i < a.stories.size(); ++i) {
    EXPECT_EQ(a.stories[i].prediction, b.stories[i].prediction) << i;
    EXPECT_EQ(a.stories[i].output_probes, b.stories[i].output_probes) << i;
    EXPECT_EQ(a.stories[i].early_exit, b.stories[i].early_exit) << i;
  }
}

TEST_F(AcceleratorFixture, StoryStreamIntoFullFifosLosesNoWord) {
  // Warm runs fed one or two story words a cycle fill FIFO_IN and
  // CMD_FIFO. CONTROL must stall on a full CMD_FIFO, never drop a word,
  // so every depth answers every story alike with the same INPUT&WRITE
  // work, and the event clock still matches the per-cycle reference. The asynchronous host has no
  // per-story latency, so it streams the next story while the datapath
  // still holds the last one and CONTROL also stalls at kStoryStart.
  const DeviceProgram program = compile_model(*model_, ith_);
  const std::span<const data::EncodedStory> stories(dataset_->test);
  RunOptions warm;
  warm.model_resident = true;
  for (const bool synchronous : {true, false}) {
    for (const double words_per_second : {1.0e8, 2.0e8}) {
      RunResult shallowest;
      for (const std::size_t depth : {2U, 4U, 8U, 128U}) {
        SCOPED_TRACE(std::string(synchronous ? "sync" : "async") + " host, " +
                     std::to_string(words_per_second) + " words/s, depth " +
                     std::to_string(depth));
        AccelConfig cfg = base_config();
        cfg.ith_enabled = true;
        cfg.fifo_depth = depth;
        cfg.link.words_per_second = words_per_second;
        cfg.link.synchronous_stories = synchronous;
        if (!synchronous) {
          cfg.link.per_story_latency = 0.0;
        }
        const Accelerator device(cfg, program);
        RunResult run = device.run(stories, warm);
        expect_identical(detail::simulate_per_cycle(device, stories, true),
                         run);
        if (depth == 2) {
          // The stream really backs up into CONTROL.
          const ModuleReport& control = run.modules.at(1);
          ASSERT_EQ(control.name, "CONTROL");
          EXPECT_GT(run.fifo_in_stats.full_rejects, 0U);
          EXPECT_GT(control.stats.stall_cycles, 0U);
          shallowest = std::move(run);
          continue;
        }
        expect_same_answers(shallowest, run);
        // INPUT&WRITE takes every story word once at any depth, so its
        // ops and busy cycles cannot move: a CONTROL that drops a word
        // on a full CMD_FIFO changes them even where the answers hold.
        const ModuleReport& input_write = run.modules.at(2);
        ASSERT_EQ(input_write.name, "INPUT_WRITE");
        expect_ops_equal(shallowest.modules.at(2).stats.ops,
                         input_write.stats.ops);
        EXPECT_EQ(shallowest.modules.at(2).stats.busy_cycles,
                  input_write.stats.busy_cycles);
      }
    }
  }
}

/// `count` seeded stories over `vocab` words: 1 to `max_sentences`
/// sentences of 1 to 4 words each and a 1- to 3-word question.
std::vector<data::EncodedStory> seeded_stories(std::size_t count,
                                               std::size_t vocab,
                                               std::size_t max_sentences,
                                               std::uint64_t seed) {
  numeric::Rng rng(seed);
  const auto fill = [&](std::vector<std::int32_t>& words, std::size_t most) {
    words.resize(1 + rng.index(most));
    for (std::int32_t& w : words) {
      w = static_cast<std::int32_t>(rng.index(vocab));
    }
  };
  std::vector<data::EncodedStory> stories(count);
  for (data::EncodedStory& story : stories) {
    story.context.resize(1 + rng.index(max_sentences));
    for (std::vector<std::int32_t>& sentence : story.context) {
      fill(sentence, 4);
    }
    fill(story.question, 3);
  }
  return stories;
}

TEST(DeviceMemory, FullBanksKeepTheLastSentencesAsTheModelDoes) {
  // Stories of up to 3 x max_memory sentences against the same stories
  // cut to their last max_memory sentences (MemN2N::memory_slots' rule),
  // on one device: its banks drop their oldest slots, so both must get
  // the same answers, with dense and with sparse reads.
  constexpr std::size_t kSlots = 3;
  model::ModelConfig mc;
  mc.vocab_size = 16;
  mc.embedding_dim = 8;
  mc.hops = 2;
  mc.max_memory = kSlots;
  mc.init_stddev = 0.5F;
  numeric::Rng rng(2019);
  const model::MemN2N net(mc, rng);
  DeviceProgram program = compile_model(net);
  // Seeded ITH tables, so probes and early exits are compared too.
  program.probe_order.resize(mc.vocab_size);
  std::iota(program.probe_order.begin(), program.probe_order.end(), 0);
  rng.shuffle(std::span<std::int32_t>(program.probe_order));
  for (std::size_t c = 0; c < mc.vocab_size; ++c) {
    program.thresholds.push_back(Fx::from_float(rng.uniform(2.0F, 6.0F)));
  }

  const std::vector<data::EncodedStory> full =
      seeded_stories(200, mc.vocab_size, 3 * kSlots, 31);
  std::vector<data::EncodedStory> cut = full;
  std::size_t truncated = 0;
  for (data::EncodedStory& story : cut) {
    const auto keep = static_cast<std::ptrdiff_t>(
        std::min(story.context.size(), kSlots));
    truncated += story.context.size() > kSlots ? 1 : 0;
    story.context.erase(story.context.begin(), story.context.end() - keep);
  }
  ASSERT_GT(truncated, 100U);

  RunOptions warm;
  warm.model_resident = true;
  for (const std::size_t sparse : {0U, 2U}) {
    SCOPED_TRACE("sparse_read_slots " + std::to_string(sparse));
    AccelConfig cfg;
    cfg.clock_hz = 100.0e6;
    cfg.ith_enabled = true;
    cfg.sparse_read_slots = sparse;
    const Accelerator device(cfg, program);
    const RunResult run = device.run(full, warm);
    EXPECT_GT(run.early_exit_rate(), 0.0);
    EXPECT_LT(run.early_exit_rate(), 1.0);
    expect_same_answers(device.run(cut, warm), run);
  }
}

TEST_F(AcceleratorFixture, RefusesWordsOutsideTheVocabulary) {
  // An id the embedding tables cannot index, in a context sentence or in
  // the question, is refused, naming the story and the word, before
  // anything is simulated or memoized: with a cache or without, and on
  // the per-cycle reference.
  const Accelerator device(base_config(), compile_model(*model_));
  const auto vocab = static_cast<std::int32_t>(dataset_->vocab_size());
  ServiceCycleCache cache;
  for (const std::int32_t bad : {vocab, vocab + 100'000'000, -1}) {
    for (const bool in_question : {false, true}) {
      SCOPED_TRACE("word " + std::to_string(bad) +
                   (in_question ? " in the question" : " in the context"));
      std::vector<data::EncodedStory> stories(test_slice(3).begin(),
                                              test_slice(3).end());
      (in_question ? stories[1].question : stories[1].context.back())
          .back() = bad;
      for (ServiceCycleCache* cycle_cache :
           std::initializer_list<ServiceCycleCache*>{nullptr, &cache}) {
        RunOptions options;
        options.cycle_cache = cycle_cache;
        try {
          (void)device.run(stories, options);
          ADD_FAILURE() << "the run answered";
        } catch (const std::invalid_argument& error) {
          const std::string what = error.what();
          EXPECT_NE(what.find("story 1 "), std::string::npos) << what;
          EXPECT_NE(what.find(" " + std::to_string(bad) + ","),
                    std::string::npos)
              << what;
        }
      }
      EXPECT_THROW(
          (void)detail::simulate_per_cycle(device, stories, false),
          std::invalid_argument);
    }
  }
  const ServiceCycleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0U);
  EXPECT_EQ(stats.story_hits + stats.story_misses, 0U);
  // The last id in range still runs.
  std::vector<data::EncodedStory> edge(test_slice(1).begin(),
                                       test_slice(1).end());
  edge[0].question.back() = vocab - 1;
  EXPECT_EQ(device.run(edge).stories.size(), 1U);
}

TEST_F(AcceleratorFixture, RejectsNonPositiveClock) {
  AccelConfig cfg = base_config();
  cfg.clock_hz = 0.0;
  EXPECT_THROW(Accelerator(cfg, compile_model(*model_)),
               std::invalid_argument);
}

/// One inconsistency the constructor must refuse, applied to a valid
/// hand-built program with ITH tables.
struct Refusal {
  const char* name;
  void (*break_program)(DeviceProgram&);
};

void PrintTo(const Refusal& refusal, std::ostream* os) { *os << refusal.name; }

DeviceProgram consistent_program() {
  DeviceProgram p;
  p.vocab_size = 4;
  p.embedding_dim = 2;
  p.hops = 1;
  p.max_memory = 4;
  p.emb_a = FxMatrix(4, 2);
  p.emb_c = FxMatrix(4, 2);
  p.emb_q = FxMatrix(4, 2);
  p.w_r = FxMatrix(2, 2);
  p.w_o = FxMatrix(4, 2);
  p.thresholds.assign(4, Fx::max());
  p.probe_order = {3, 1, 0, 2};
  return p;
}

/// Stories answered by a device of `cfg` and consistent_program() given
/// one story.
std::size_t answers_one_story(const AccelConfig& cfg) {
  data::EncodedStory story;
  story.context = {{0, 1}, {2}};
  story.question = {3};
  return Accelerator(cfg, consistent_program())
      .run(std::span(&story, 1))
      .stories.size();
}

class AcceleratorRefuses : public ::testing::TestWithParam<Refusal> {};

TEST_P(AcceleratorRefuses, InconsistentProgram) {
  AccelConfig cfg;
  cfg.ith_enabled = true;
  // The program before the break runs a story under ITH.
  EXPECT_EQ(answers_one_story(cfg), 1U);

  DeviceProgram program = consistent_program();
  GetParam().break_program(program);
  cfg.ith_enabled = false;
  EXPECT_THROW(Accelerator(cfg, program), std::invalid_argument);
}

constexpr Refusal kRefusals[] = {
    {"VocabSizeZero",
     [](DeviceProgram& p) {
       p.vocab_size = 0;
       for (FxMatrix* m : {&p.emb_a, &p.emb_c, &p.emb_q, &p.w_o}) {
         *m = FxMatrix(0, 2);
       }
       p.thresholds.clear();
       p.probe_order.clear();
     }},
    {"EmbeddingDimZero",
     [](DeviceProgram& p) {
       // Every table consistently zero wide: READ's add phase would
       // wrap a countdown of 0 cycles, so a run never ends.
       p.embedding_dim = 0;
       for (FxMatrix* m : {&p.emb_a, &p.emb_c, &p.emb_q, &p.w_o}) {
         *m = FxMatrix(4, 0);
       }
       p.w_r = FxMatrix(0, 0);
     }},
    {"WoShort", [](DeviceProgram& p) { p.w_o = FxMatrix(3, 2); }},
    {"EmbAShort", [](DeviceProgram& p) { p.emb_a = FxMatrix(3, 2); }},
    {"EmbCShort", [](DeviceProgram& p) { p.emb_c = FxMatrix(3, 2); }},
    {"EmbQShort", [](DeviceProgram& p) { p.emb_q = FxMatrix(3, 2); }},
    {"WoNarrow", [](DeviceProgram& p) { p.w_o = FxMatrix(4, 1); }},
    {"EmbAWide", [](DeviceProgram& p) { p.emb_a = FxMatrix(4, 3); }},
    {"EmbCNarrow", [](DeviceProgram& p) { p.emb_c = FxMatrix(4, 1); }},
    {"EmbQWide", [](DeviceProgram& p) { p.emb_q = FxMatrix(4, 3); }},
    {"WrNotSquare", [](DeviceProgram& p) { p.w_r = FxMatrix(3, 2); }},
    {"WrNarrow", [](DeviceProgram& p) { p.w_r = FxMatrix(2, 1); }},
    {"HopsZero", [](DeviceProgram& p) { p.hops = 0; }},
    {"MaxMemoryZero", [](DeviceProgram& p) { p.max_memory = 0; }},
    {"ThresholdsShort", [](DeviceProgram& p) { p.thresholds.pop_back(); }},
    {"ProbeOrderShort", [](DeviceProgram& p) { p.probe_order.pop_back(); }},
    {"ProbeOrderPastTheClasses",
     [](DeviceProgram& p) { p.probe_order[1] = 4; }},
    {"ProbeOrderNegative", [](DeviceProgram& p) { p.probe_order[2] = -1; }},
    {"ProbeOrderRepeatsAClass",
     [](DeviceProgram& p) { p.probe_order = {3, 1, 3, 2}; }},
    {"ProbeOrderWithoutThresholds",
     [](DeviceProgram& p) { p.thresholds.clear(); }},
};

INSTANTIATE_TEST_SUITE_P(
    Accelerator, AcceleratorRefuses, ::testing::ValuesIn(kRefusals),
    [](const ::testing::TestParamInfo<Refusal>& info) {
      return std::string(info.param.name);
    });

/// One setting no run can finish correctly, applied to the default
/// config. Without the refusal each one fails inside a run (a division
/// by a zero lane width, a zero-capacity FIFO, a watchdog expiry after
/// a NaN stalls the link) or reports wrong cycles (a negative latency
/// wraps its cycle count).
struct ConfigRefusal {
  const char* name;
  void (*break_config)(AccelConfig&);
};

void PrintTo(const ConfigRefusal& refusal, std::ostream* os) {
  *os << refusal.name;
}

class AcceleratorRefusesConfig
    : public ::testing::TestWithParam<ConfigRefusal> {};

TEST_P(AcceleratorRefusesConfig, UnrunnableConfig) {
  AccelConfig cfg;
  // The config before the break runs a story.
  EXPECT_EQ(answers_one_story(cfg), 1U);

  GetParam().break_config(cfg);
  EXPECT_THROW(Accelerator(cfg, consistent_program()), std::invalid_argument);
  sim::Fifo<StreamWord> in("IN", 4);
  sim::Fifo<std::int32_t> out("OUT", 4);
  EXPECT_THROW(HostLinkModule(cfg, 0, {}, in, out), std::invalid_argument);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kTwoTo53 = 9007199254740992.0;

constexpr ConfigRefusal kConfigRefusals[] = {
    {"LaneWidthZero", [](AccelConfig& c) { c.timing.lane_width = 0; }},
    {"FifoDepthZero", [](AccelConfig& c) { c.fifo_depth = 0; }},
    {"ClockNan", [](AccelConfig& c) { c.clock_hz = kNan; }},
    {"ClockInfinite", [](AccelConfig& c) { c.clock_hz = kInfinity; }},
    {"ClockNotWhole", [](AccelConfig& c) { c.clock_hz = 33.3 * 1.0e6; }},
    {"ClockPast2To53", [](AccelConfig& c) { c.clock_hz = 2.0 * kTwoTo53; }},
    {"WordRateNan", [](AccelConfig& c) { c.link.words_per_second = kNan; }},
    {"WordRateZero", [](AccelConfig& c) { c.link.words_per_second = 0.0; }},
    {"WordRateNotWhole",
     [](AccelConfig& c) { c.link.words_per_second = 4.0e6 + 0.5; }},
    {"WordRatePast2To53",
     [](AccelConfig& c) { c.link.words_per_second = kTwoTo53 + 2.0; }},
    {"ModelRateNan",
     [](AccelConfig& c) { c.link.model_words_per_second = kNan; }},
    {"ModelRateNegative",
     [](AccelConfig& c) { c.link.model_words_per_second = -1.0; }},
    {"StoryLatencyNan",
     [](AccelConfig& c) { c.link.per_story_latency = kNan; }},
    {"StoryLatencyNegative",
     [](AccelConfig& c) { c.link.per_story_latency = -2.0e-6; }},
    {"ResultLatencyNegative",
     [](AccelConfig& c) { c.link.result_latency = -1.0e-6; }},
    {"ResultLatencyInfinite",
     [](AccelConfig& c) { c.link.result_latency = kInfinity; }},
};

INSTANTIATE_TEST_SUITE_P(
    Accelerator, AcceleratorRefusesConfig,
    ::testing::ValuesIn(kConfigRefusals),
    [](const ::testing::TestParamInfo<ConfigRefusal>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mann::accel
