// Differential tests of the device clock. Accelerator::run times a
// synchronous run in closed form (one fold over its stories) and ticks
// any other; detail::simulate_per_cycle ticks the module graph on every
// cycle. Every field of the two RunResults must agree, on every
// configuration axis the benches sweep, cold and warm, and on a seeded
// sweep of configurations that counts the runs the closed form takes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/service_cycle_cache.hpp"
#include "accel/stream.hpp"
#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/trainer.hpp"
#include "numeric/random.hpp"
#include "run_results_equal.hpp"

namespace mann::accel {
namespace {

/// One trained qa1 model with ITH tables, shared by the suite.
class EventEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig dc;
    dc.train_stories = 200;
    dc.test_stories = 24;
    dc.seed = 7;
    dataset_ = new data::TaskDataset(
        data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc));
    model::ModelConfig mc;
    mc.vocab_size = dataset_->vocab_size();
    mc.embedding_dim = 20;  // not a multiple of the 8-lane tree
    mc.hops = 3;
    numeric::Rng rng(5);
    model_ = new model::MemN2N(mc, rng);
    model::TrainConfig tc;
    tc.epochs = 6;
    model::train(*model_, dataset_->train, tc);
    const core::InferenceThresholding ith =
        core::InferenceThresholding::calibrate(*model_, dataset_->train, {});
    plain_ = new DeviceProgram(compile_model(*model_));
    with_ith_ = new DeviceProgram(compile_model(*model_, &ith));
  }

  static void TearDownTestSuite() {
    delete with_ith_;
    delete plain_;
    delete model_;
    delete dataset_;
  }

  static AccelConfig config(double clock_hz) {
    AccelConfig cfg;
    cfg.clock_hz = clock_hz;
    return cfg;
  }

  static AccelConfig unbound(AccelConfig cfg) {
    cfg.link.words_per_second = 1.0e15;
    cfg.link.model_words_per_second = 1.0e15;
    cfg.link.per_story_latency = 0.0;
    cfg.link.result_latency = 0.0;
    return cfg;
  }

  /// Runs both clocks, cold and warm, and demands identical results.
  static void check(const AccelConfig& cfg) {
    const Accelerator device(cfg, cfg.ith_enabled ? *with_ith_ : *plain_);
    const std::span<const data::EncodedStory> stories(dataset_->test);
    for (const bool resident : {false, true}) {
      SCOPED_TRACE(resident ? "model_resident" : "cold");
      RunOptions options;
      options.model_resident = resident;
      const RunResult events = device.run(stories, options);
      const RunResult ticked =
          detail::simulate_per_cycle(device, stories, resident);
      ASSERT_EQ(ticked.stories.size(), stories.size());
      expect_identical(ticked, events);
    }
  }

  static data::TaskDataset* dataset_;
  static model::MemN2N* model_;
  static DeviceProgram* plain_;
  static DeviceProgram* with_ith_;
};

data::TaskDataset* EventEquivalence::dataset_ = nullptr;
model::MemN2N* EventEquivalence::model_ = nullptr;
DeviceProgram* EventEquivalence::plain_ = nullptr;
DeviceProgram* EventEquivalence::with_ith_ = nullptr;

TEST_F(EventEquivalence, PaperClocksWithAndWithoutIth) {
  for (const double mhz : {25.0, 50.0, 75.0, 100.0}) {
    for (const bool ith : {false, true}) {
      SCOPED_TRACE(std::to_string(mhz) + " MHz, ITH " + (ith ? "on" : "off"));
      AccelConfig cfg = config(mhz * 1.0e6);
      cfg.ith_enabled = ith;
      check(cfg);
    }
  }
}

TEST_F(EventEquivalence, SparseReads) {
  for (const double mhz : {25.0, 100.0}) {
    AccelConfig cfg = config(mhz * 1.0e6);
    cfg.sparse_read_slots = 3;
    check(cfg);
  }
}

TEST_F(EventEquivalence, AdderTreeWidths) {
  for (const std::size_t lanes : {4U, 8U, 32U}) {
    SCOPED_TRACE("lane_width " + std::to_string(lanes));
    AccelConfig cfg = config(100.0e6);
    cfg.timing.lane_width = lanes;
    check(cfg);
    check(unbound(cfg));
  }
}

TEST_F(EventEquivalence, FifoDepths) {
  for (const std::size_t depth : {1U, 2U, 32U}) {
    SCOPED_TRACE("fifo_depth " + std::to_string(depth));
    AccelConfig cfg = config(50.0e6);
    cfg.fifo_depth = depth;
    check(cfg);
    check(unbound(cfg));
  }
}

TEST_F(EventEquivalence, AsynchronousHostStreamsAhead) {
  for (const double mhz : {25.0, 100.0}) {
    AccelConfig cfg = config(mhz * 1.0e6);
    cfg.link.synchronous_stories = false;
    cfg.fifo_depth = 2;  // CONTROL blocks on the datapath, the link on it
    check(cfg);
  }
}

TEST_F(EventEquivalence, InterfaceUnboundLink) {
  for (const bool ith : {false, true}) {
    AccelConfig cfg = unbound(config(100.0e6));
    cfg.ith_enabled = ith;
    check(cfg);
    cfg.link.synchronous_stories = false;
    check(cfg);
  }
}

TEST_F(EventEquivalence, PushesIntoAFullFifoInAreCountedAlike) {
  // A fast asynchronous link against a one-word FIFO_IN: the link keeps
  // retrying a full FIFO, and each refused push is a full_reject.
  AccelConfig cfg = unbound(config(100.0e6));
  cfg.link.synchronous_stories = false;
  cfg.fifo_depth = 1;
  const Accelerator device(cfg, *plain_);
  const RunResult events = device.run(dataset_->test);
  EXPECT_GT(events.fifo_in_stats.full_rejects, 0U);
  expect_identical(detail::simulate_per_cycle(device, dataset_->test, false),
                   events);
}

TEST_F(EventEquivalence, PointerSpanRunsLikeTheValueSpan) {
  // A serving batch borrows its stories: pointers, in batch order, into
  // wherever the corpus lives. Here they point at heap copies of the
  // test split taken in reverse, so addresses and order both differ from
  // the source vector.
  const std::vector<data::EncodedStory> batch(dataset_->test.rbegin(),
                                              dataset_->test.rend());
  std::vector<std::unique_ptr<data::EncodedStory>> copies;
  std::vector<const data::EncodedStory*> pointers;
  for (const data::EncodedStory& story : batch) {
    copies.push_back(std::make_unique<data::EncodedStory>(story));
    pointers.push_back(copies.back().get());
  }
  const std::span<const data::EncodedStory* const> borrowed(pointers);
  // Contents, never addresses: the same key as the batch's own stories.
  EXPECT_EQ(digest_stories(borrowed), digest_stories(story_pointers(batch)));
  for (const bool ith : {false, true}) {
    AccelConfig cfg = config(100.0e6);
    cfg.ith_enabled = ith;
    const Accelerator device(cfg, ith ? *with_ith_ : *plain_);
    for (const bool resident : {false, true}) {
      SCOPED_TRACE(std::string(ith ? "ITH, " : "plain, ") +
                   (resident ? "model_resident" : "cold"));
      RunOptions options;
      options.model_resident = resident;
      const RunResult by_value = device.run(batch, options);
      const RunResult by_pointer = device.run(borrowed, options);
      expect_identical(by_value, by_pointer);
      expect_identical(detail::simulate_per_cycle(device, batch, resident),
                       by_pointer);

      // The value span publishes; the pointers find its entry.
      ServiceCycleCache cache(2);
      CacheOutcome outcome = CacheOutcome::kNone;
      options.cycle_cache = &cache;
      options.cache_outcome = &outcome;
      (void)device.run(batch, options);
      EXPECT_EQ(outcome, CacheOutcome::kMiss);
      expect_identical(by_value, device.run(borrowed, options));
      EXPECT_EQ(outcome, CacheOutcome::kHit);
    }
  }
}

TEST_F(EventEquivalence, StoryMemoRunsLikeTheValuePass) {
  // Every RunResult field is the same whether a run computes its
  // stories' values (no cache, a cold cache), takes every one from the
  // cache's story entries (a warm cache, through a batch it has not
  // seen: the stories in reverse), or meets a memo at its cap, which
  // memoizes no further story.
  const std::span<const data::EncodedStory> stories(dataset_->test);
  const std::vector<data::EncodedStory> reversed(stories.rbegin(),
                                                 stories.rend());
  const std::uint64_t n = stories.size();
  std::set<std::uint64_t> digests;
  for (const data::EncodedStory& story : stories) {
    const data::EncodedStory* one = &story;
    digests.insert(digest_stories(std::span(&one, 1)));
  }
  const std::uint64_t distinct = digests.size();
  struct Setup {
    const char* name;
    bool ith;
    std::size_t sparse_read_slots;
  };
  for (const Setup setup : {Setup{"plain", false, 0}, Setup{"ITH", true, 0},
                            Setup{"sparse 2", false, 2}}) {
    AccelConfig cfg = config(100.0e6);
    cfg.ith_enabled = setup.ith;
    cfg.sparse_read_slots = setup.sparse_read_slots;
    const Accelerator device(cfg, setup.ith ? *with_ith_ : *plain_);
    for (const bool resident : {false, true}) {
      SCOPED_TRACE(std::string(setup.name) +
                   (resident ? ", model_resident" : ", cold"));
      RunOptions options;
      options.model_resident = resident;
      const RunResult uncached = device.run(stories, options);
      const RunResult uncached_reversed = device.run(reversed, options);
      expect_identical(detail::simulate_per_cycle(device, stories, resident),
                       uncached);

      ServiceCycleCache cache;
      options.cycle_cache = &cache;
      expect_identical(uncached, device.run(stories, options));
      ServiceCycleCacheStats stats = cache.stats();
      EXPECT_EQ(stats.misses, 1U);
      EXPECT_EQ(stats.story_misses, distinct);
      EXPECT_EQ(stats.story_hits, n - distinct);

      expect_identical(uncached_reversed, device.run(reversed, options));
      stats = cache.stats();
      EXPECT_EQ(stats.misses, 2U);
      EXPECT_EQ(stats.story_misses, distinct);
      EXPECT_EQ(stats.story_hits, n - distinct + n);

      ServiceCycleCache full;
      for (std::uint64_t i = 0; i < ServiceCycleCache::kStoryCapacity; ++i) {
        full.publish_story({device.fingerprint() + 1, i}, StoryValues{});
      }
      options.cycle_cache = &full;
      expect_identical(uncached, device.run(stories, options));
      expect_identical(uncached_reversed, device.run(reversed, options));
      stats = full.stats();
      EXPECT_EQ(stats.misses, 2U);
      EXPECT_EQ(stats.story_hits, 0U);
      EXPECT_EQ(stats.story_misses, 2 * n);
    }
  }
}

TEST_F(EventEquivalence, StoryMemoIsKeyedByWhatTheValuePassReads) {
  // A story's values depend on the program, sparse_read_slots and ITH
  // alone. One ITH program's stories run at 25 MHz and then at 100 MHz
  // (and with another link and bram_write) through one cache compute
  // each story once, and every RunResult field equals an uncached run's.
  // Plain and ITH programs, and dense and sparse reads, never share an
  // entry: each first run through the cache computes all its stories.
  const std::span<const data::EncodedStory> stories(dataset_->test);
  std::set<std::uint64_t> digests;
  for (const data::EncodedStory& story : stories) {
    const data::EncodedStory* one = &story;
    digests.insert(digest_stories(std::span(&one, 1)));
  }
  const std::uint64_t distinct = digests.size();
  const std::uint64_t n = stories.size();
  ServiceCycleCache cache;
  RunOptions cached;
  cached.cycle_cache = &cache;
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;
  const auto run_both = [&](const AccelConfig& cfg,
                            const DeviceProgram& program) {
    const Accelerator device(cfg, program);
    expect_identical(device.run(stories), device.run(stories, cached));
    return cache.stats();
  };

  AccelConfig ith = config(25.0e6);
  ith.ith_enabled = true;
  ServiceCycleCacheStats stats = run_both(ith, *with_ith_);
  misses += distinct;
  hits += n - distinct;
  EXPECT_EQ(stats.story_misses, misses);
  EXPECT_EQ(stats.story_hits, hits);
  ith.clock_hz = 100.0e6;
  stats = run_both(ith, *with_ith_);
  hits += n;
  EXPECT_EQ(stats.story_misses, misses);
  EXPECT_EQ(stats.story_hits, hits);
  ith.link.words_per_second = 2.0e6;
  ith.timing.bram_write = 3;
  stats = run_both(ith, *with_ith_);
  hits += n;
  EXPECT_EQ(stats.story_misses, misses);
  EXPECT_EQ(stats.story_hits, hits);

  struct Setup {
    const char* name;
    bool ith;
    std::size_t sparse_read_slots;
  };
  for (const Setup setup :
       {Setup{"plain", false, 0}, Setup{"plain, sparse 2", false, 2},
        Setup{"ITH, sparse 2", true, 2}}) {
    SCOPED_TRACE(setup.name);
    AccelConfig cfg = config(100.0e6);
    cfg.ith_enabled = setup.ith;
    cfg.sparse_read_slots = setup.sparse_read_slots;
    stats = run_both(cfg, setup.ith ? *with_ith_ : *plain_);
    misses += distinct;
    hits += n - distinct;
    EXPECT_EQ(stats.story_misses, misses);
    EXPECT_EQ(stats.story_hits, hits);
  }
}

TEST_F(EventEquivalence, DeadlockTripsTheWatchdogOnBothClocks) {
  // No model bandwidth: the upload never finishes, nothing ever answers.
  AccelConfig stuck = config(100.0e6);
  stuck.link.model_words_per_second = 0.0;
  stuck.watchdog_cycles = 200'000;
  const Accelerator device(stuck, *plain_);
  EXPECT_THROW((void)device.run(dataset_->test), std::runtime_error);
  EXPECT_THROW(
      (void)detail::simulate_per_cycle(device, dataset_->test, false),
      std::runtime_error);

  // A live run that simply needs more cycles than the watchdog allows.
  AccelConfig short_fuse = config(100.0e6);
  short_fuse.watchdog_cycles = 5'000;
  const Accelerator hurried(short_fuse, *plain_);
  EXPECT_THROW((void)hurried.run(dataset_->test), std::runtime_error);
  EXPECT_THROW(
      (void)detail::simulate_per_cycle(hurried, dataset_->test, false),
      std::runtime_error);
}

TEST_F(EventEquivalence, ColdUploadAtEveryModelRateAndDepth) {
  // The closed form's upload: below 1 model word per cycle FIFO_IN never
  // fills; at exactly 1 it never holds a word at a cycle boundary; above
  // it fills to the depth, and at 1.5 the credit left after a push
  // reaches 1.0 only on some cycles, so each cycle's refused push must be
  // counted, not assumed.
  for (const double rate : {0.7, 1.0, 1.5}) {
    for (const std::size_t depth : {1U, 2U, 32U}) {
      SCOPED_TRACE(std::to_string(rate) + " model words/cycle, fifo_depth " +
                   std::to_string(depth));
      AccelConfig cfg = config(50.0e6);
      cfg.link.model_words_per_second = rate * cfg.clock_hz;
      cfg.fifo_depth = depth;
      check(cfg);
    }
  }
}

TEST_F(EventEquivalence, UploadCreditCarriesIntoTheStories) {
  // With no story latency an asynchronous host spends the credit the
  // upload left behind on the stories. At 75 MHz the model rate is 8/3
  // words/cycle, so the credit the upload leaves is not a whole number of
  // words; at 100 MHz it is 2, and it is.
  for (const double mhz : {75.0, 100.0}) {
    for (const bool ith : {false, true}) {
      SCOPED_TRACE(std::to_string(mhz) + " MHz, ITH " + (ith ? "on" : "off"));
      AccelConfig cfg = config(mhz * 1.0e6);
      cfg.link.synchronous_stories = false;
      cfg.link.per_story_latency = 0.0;
      cfg.ith_enabled = ith;
      check(cfg);
    }
  }
}

TEST_F(EventEquivalence, StoryWindowOnBothSidesOfTheSpacingRule) {
  // A synchronous run takes the closed form only when ⌊clock/rate⌋ ≥
  // 1 + bram_write: a sentence flush then ends before the next word
  // lands. At ⌊clock/rate⌋ = bram_write the flush still runs when the
  // next word arrives, which waits in CMD_FIFO, and the run ticks every
  // cycle; at 0 (a rate above the clock) two words can land in one
  // cycle. Each spacing runs at an exact and an inexact word rate
  // (1 word/cycle is the clock itself), each with the default link, no
  // story latency, and an asynchronous host.
  constexpr double kClockHz = 100.0e6;
  for (const sim::Cycle bram_write :
       {sim::Cycle{0}, sim::Cycle{1}, sim::Cycle{3}}) {
    for (const sim::Cycle spacing : {bram_write, bram_write + 1}) {
      const auto s = static_cast<double>(spacing);
      const std::vector<double> words_per_cycle =
          spacing == 0 ? std::vector{2.0, 1.5}
                       : std::vector{1.0 / s, 1.0 / (s + 0.5)};
      for (const double rate : words_per_cycle) {
        for (const int host : {0, 1, 2}) {
          SCOPED_TRACE("bram_write " + std::to_string(bram_write) + ", " +
                       std::to_string(rate) + " words/cycle, " +
                       (host == 0   ? "default link"
                        : host == 1 ? "no story latency"
                                    : "asynchronous host"));
          AccelConfig cfg = config(kClockHz);
          cfg.timing.bram_write = bram_write;
          cfg.link.words_per_second = std::round(rate * kClockHz);
          ASSERT_EQ(static_cast<sim::Cycle>(kClockHz) /
                        static_cast<sim::Cycle>(cfg.link.words_per_second),
                    spacing);
          if (host == 1) {
            cfg.link.per_story_latency = 0.0;
          } else if (host == 2) {
            cfg.link.synchronous_stories = false;
          }
          check(cfg);
        }
      }
    }
  }
}

TEST_F(EventEquivalence, WatchdogExpiresMidUploadOnBothClocks) {
  // CONTROL stores one model word per cycle, so the watchdog expires
  // partway through the upload, in closed form and per cycle alike.
  AccelConfig cfg = config(100.0e6);
  cfg.watchdog_cycles = plain_->model_words() / 2;
  const Accelerator device(cfg, *plain_);
  EXPECT_THROW((void)device.run(dataset_->test), std::runtime_error);
  EXPECT_THROW(
      (void)detail::simulate_per_cycle(device, dataset_->test, false),
      std::runtime_error);
}

// ---- the seeded sweep -------------------------------------------------------

/// One device configuration, its residency and the slice of the test
/// split it runs.
struct DeviceCase {
  AccelConfig config;
  bool model_resident = false;
  std::size_t first = 0;  ///< index of the first story in the split
  std::size_t count = 1;  ///< stories, in split order
  std::string text;       ///< for failure messages
};

/// Seeded case generator in the shape of seabrute's task_generator:
/// get_next() yields case i of the sweep as a pure function of (seed, i),
/// so a failing case reproduces from its number alone.
class DeviceCaseGenerator {
 public:
  DeviceCaseGenerator(std::uint64_t seed, std::size_t stories)
      : seed_(seed), stories_(stories) {}

  DeviceCase get_next() {
    const std::uint64_t i = next_++;
    numeric::Rng rng(numeric::mix64(seed_ ^ i));
    constexpr double kClocks[] = {3.0e6, 25.0e6, 75.0e6, 100.0e6};
    // Link rates in words a cycle, rounded to whole words/s: inexact in
    // binary (0.08 is 50 MHz's default), on both sides of the spacing
    // rule, and above a word a cycle.
    constexpr double kWordRates[] = {0.04, 0.08, 0.16, 0.3,
                                     1.0 / 3.0, 0.5, 1.0, 1.5};
    constexpr double kModelRates[] = {0.3, 0.7, 1.0, 1.5, 2.0, 8.0 / 3.0, 8.0};
    constexpr std::size_t kLaneWidths[] = {1, 2, 4, 8, 32};
    DeviceCase c;
    AccelConfig& cfg = c.config;
    cfg.clock_hz = kClocks[rng.index(std::size(kClocks))];
    const double rate = kWordRates[rng.index(std::size(kWordRates))];
    const double model_rate = kModelRates[rng.index(std::size(kModelRates))];
    cfg.link.words_per_second = std::round(rate * cfg.clock_hz);
    cfg.link.model_words_per_second = std::round(model_rate * cfg.clock_hz);
    const std::size_t latency = rng.index(3) == 0 ? 0 : 1 + rng.index(60);
    cfg.link.per_story_latency = static_cast<double>(latency) / cfg.clock_hz;
    const std::size_t result_latency = rng.index(4);
    cfg.link.result_latency =
        static_cast<double>(result_latency) / cfg.clock_hz;
    cfg.link.synchronous_stories = rng.index(4) != 0;
    cfg.fifo_depth = 1 + rng.index(48);
    cfg.timing.lane_width = kLaneWidths[rng.index(std::size(kLaneWidths))];
    cfg.timing.bram_write = rng.index(5);
    cfg.timing.exp_latency = rng.index(5);
    cfg.timing.div_latency = 1 + rng.index(10);
    cfg.sparse_read_slots = rng.index(2) == 0 ? 0 : 1 + rng.index(4);
    cfg.ith_enabled = rng.index(2) == 0;
    c.model_resident = rng.index(2) == 0;
    c.count = 1 + rng.index(std::min<std::size_t>(12, stories_));
    c.first = rng.index(stories_ - c.count + 1);
    c.text = std::to_string(cfg.clock_hz / 1.0e6) + " MHz, " +
             std::to_string(rate) + " words/cycle, model " +
             std::to_string(model_rate) + ", story latency " +
             std::to_string(latency) + ", result latency " +
             std::to_string(result_latency) + ", depth " +
             std::to_string(cfg.fifo_depth) + ", lanes " +
             std::to_string(cfg.timing.lane_width) + ", bram_write " +
             std::to_string(cfg.timing.bram_write) + ", exp " +
             std::to_string(cfg.timing.exp_latency) + ", div " +
             std::to_string(cfg.timing.div_latency) + ", sparse " +
             std::to_string(cfg.sparse_read_slots) +
             (cfg.link.synchronous_stories ? ", synchronous"
                                           : ", asynchronous") +
             (c.model_resident ? ", resident" : ", cold") +
             (cfg.ith_enabled ? ", ITH, " : ", plain, ") +
             std::to_string(c.count) + " stories from " +
             std::to_string(c.first);
    return c;
  }

 private:
  std::uint64_t seed_;
  std::size_t stories_;
  std::uint64_t next_ = 0;
};

TEST_F(EventEquivalence, SeededSweepMatchesPerCycleTicking) {
  // Each case runs one seeded configuration on a slice of the test split
  // through Accelerator::run and detail::simulate_per_cycle, and every
  // RunResult field must agree. The cases the closed form takes must
  // stay a floor of the sweep and reach its upload's refusals and the
  // runs with and without a DMA delay; the rest tick on both sides.
  constexpr std::size_t kCases = 3000;
  DeviceCaseGenerator cases(2019, dataset_->test.size());
  std::size_t closed = 0;
  std::size_t closed_cold = 0;
  std::size_t closed_refusing = 0;
  std::size_t closed_without_delay = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    const DeviceCase c = cases.get_next();
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.text);
    const Accelerator device(c.config,
                             c.config.ith_enabled ? *with_ith_ : *plain_);
    const std::span<const data::EncodedStory> stories =
        std::span<const data::EncodedStory>(dataset_->test)
            .subspan(c.first, c.count);
    RunOptions options;
    options.model_resident = c.model_resident;
    const RunResult ticked =
        detail::simulate_per_cycle(device, stories, c.model_resident);
    expect_identical(ticked, device.run(stories, options));
    if (HasFailure()) {
      return;
    }
    if (detail::takes_closed_form(device, c.model_resident)) {
      ++closed;
      closed_cold += c.model_resident ? 0 : 1;
      closed_refusing += ticked.fifo_in_stats.full_rejects > 0 ? 1 : 0;
      closed_without_delay += c.config.link.per_story_latency == 0.0 ? 1 : 0;
    }
  }
  std::printf("closed form: %zu of %zu cases (%zu cold, %zu refusing, %zu "
              "without a DMA delay)\n",
              closed, kCases, closed_cold, closed_refusing,
              closed_without_delay);
  EXPECT_GE(closed, kCases * 35 / 100);
  EXPECT_GE(closed_cold, closed / 4);
  EXPECT_GE(closed_refusing, 50U);
  EXPECT_GE(closed_without_delay, 100U);
}

}  // namespace
}  // namespace mann::accel
