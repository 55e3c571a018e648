// Differential tests of the event-driven device clock. Accelerator::run
// jumps quiescent stretches (Simulator::run_events plus each module's
// next_activity/skip); detail::simulate_per_cycle ticks the same module
// graph on every cycle. Every field of the two RunResults must agree, on
// every configuration axis the benches sweep, cold and warm. Module-level
// twins then pin the accounting traps one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/control.hpp"
#include "accel/datapath.hpp"
#include "accel/host_link.hpp"
#include "accel/input_write.hpp"
#include "accel/mem_module.hpp"
#include "accel/output_module.hpp"
#include "accel/read_module.hpp"
#include "accel/service_cycle_cache.hpp"
#include "accel/stream.hpp"
#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/trainer.hpp"
#include "numeric/random.hpp"
#include "run_results_equal.hpp"
#include "sim/simulator.hpp"

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
  // HOST_LINK and CONTROL skip a steady upload together only above 1
  // model word per cycle into a FIFO_IN at least two words deep. Below
  // that rate the FIFO never fills; at exactly 1 it never holds a word at
  // a cycle boundary; at depth 1 CONTROL never sees a head there. At 1.5
  // the credit left after a push reaches 1.0 only on some cycles, so
  // each cycle's refused push must be counted, not assumed.
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
  // HOST_LINK, CONTROL and INPUT&WRITE skip a story's data words as one
  // event only when ⌊clock/rate⌋ ≥ 1 + bram_write: a sentence flush then
  // ends before the next word lands. At ⌊clock/rate⌋ = bram_write the
  // flush still runs when the next word arrives, which waits in CMD_FIFO,
  // and the words tick one by one; at 0 (a rate above the clock) two
  // words can land in one cycle. Each spacing runs at an exact and an
  // inexact word rate (1 word/cycle is the clock itself), each with the
  // default link, no story latency, and an asynchronous host.
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
  // CONTROL stores one model word per cycle, so the watchdog clamps the
  // event clock's skip partway through an upload window.
  AccelConfig cfg = config(100.0e6);
  cfg.watchdog_cycles = plain_->model_words() / 2;
  const Accelerator device(cfg, *plain_);
  EXPECT_THROW((void)device.run(dataset_->test), std::runtime_error);
  EXPECT_THROW(
      (void)detail::simulate_per_cycle(device, dataset_->test, false),
      std::runtime_error);
}

// ---- module-level twins --------------------------------------------------

/// Drives `module` from cycle `from` to `until` the way run_events would
/// — skipping to its next activity, never past `until` — while `twin`
/// ticks every cycle. Input from outside (an answer in FIFO_OUT, a drained
/// FIFO_IN) goes to both between two calls, before the tick at `until`.
template <typename Module>
void drive_twins(Module& module, Module& twin, sim::Cycle from,
                 sim::Cycle until) {
  for (sim::Cycle c = from; c < until; ++c) {
    twin.tick();
  }
  sim::Cycle c = from;
  while (c < until) {
    const std::optional<sim::Cycle> next = module.next_activity(c);
    ASSERT_TRUE(next.has_value());
    const sim::Cycle target = std::min(*next, until);
    if (target > c) {
      module.skip(target - c);
      c = target;
      continue;
    }
    module.tick();
    ++c;
  }
}

/// A HOST_LINK with its own FIFOs, for the twin tests.
struct LinkRig {
  LinkRig(const AccelConfig& cfg, std::vector<StreamWord> words,
          std::size_t depth, std::size_t model_words = 0)
      : in("IN", depth),
        out("OUT", 4),
        link(cfg, model_words, std::move(words), in, out) {}
  sim::Fifo<StreamWord> in;
  sim::Fifo<std::int32_t> out;
  HostLinkModule link;
};

void expect_links_equal(const LinkRig& a, const LinkRig& b) {
  EXPECT_EQ(a.in.size(), b.in.size());
  expect_fifo_equal(a.in.stats(), b.in.stats());
  expect_fifo_equal(a.out.stats(), b.out.stats());
  expect_stats_equal(a.link.stats(), b.link.stats());
  EXPECT_EQ(a.link.link_active_cycles(), b.link.link_active_cycles());
  ASSERT_EQ(a.link.answers().size(), b.link.answers().size());
  for (std::size_t i = 0; i < a.link.answers().size(); ++i) {
    EXPECT_EQ(a.link.answers()[i].cycle, b.link.answers()[i].cycle);
  }
}

AccelConfig slow_link() {
  AccelConfig cfg;
  cfg.clock_hz = 1.0e6;
  cfg.link.words_per_second = 0.3e6;  // 0.3 words/cycle: inexact in binary
  cfg.link.model_words_per_second = 0.3e6;
  cfg.link.per_story_latency = 0.0;
  cfg.link.result_latency = 2.0e-6;
  return cfg;
}

std::vector<StreamWord> two_stories() {
  return {{StreamOp::kStoryStart, 0},   {StreamOp::kSentenceStart, 0},
          {StreamOp::kContextWord, 1},  {StreamOp::kEndOfStory, 0},
          {StreamOp::kStoryStart, 0},   {StreamOp::kSentenceStart, 0},
          {StreamOp::kContextWord, 2},  {StreamOp::kEndOfStory, 0}};
}

TEST(EventTwins, SyncWaitCreditResetsOnlyWhenItReachesOne) {
  // The synchronous host holds story 2 until story 1's answer arrives at
  // `answer_at`. Meanwhile its credit climbs by 0.3 and drops to 0 each
  // time it reaches 1.0. Where in that cycle the answer lands decides
  // when story 2's first word goes out, so a skip that froze or zeroed
  // the credit would shift every later push.
  for (sim::Cycle answer_at = 20; answer_at < 60; ++answer_at) {
    SCOPED_TRACE("answer at " + std::to_string(answer_at));
    LinkRig events(slow_link(), two_stories(), 16);
    LinkRig ticked(slow_link(), two_stories(), 16);
    drive_twins(events.link, ticked.link, 0, answer_at);
    events.out.push(1);
    ticked.out.push(1);
    drive_twins(events.link, ticked.link, answer_at, answer_at + 40);
    EXPECT_TRUE(ticked.link.all_words_sent());
    expect_links_equal(events, ticked);
  }
}

TEST(EventTwins, DmaDelayForcesCreditToZero) {
  // Story latency charges a DMA delay on the stream's first kStoryStart;
  // the delay zeroes the credit left over from the partial cycle.
  AccelConfig cfg = slow_link();
  cfg.link.per_story_latency = 7.0e-6;
  cfg.link.synchronous_stories = false;
  for (sim::Cycle until = 1; until < 60; ++until) {
    SCOPED_TRACE("until " + std::to_string(until));
    LinkRig events(cfg, two_stories(), 16);
    LinkRig ticked(cfg, two_stories(), 16);
    drive_twins(events.link, ticked.link, 0, until);
    expect_links_equal(events, ticked);
  }
}

TEST(EventTwins, PushAgainstFullFifoIsNeverSkipped) {
  // Nobody drains FIFO_IN: once it is full, every credit crossing is a
  // refused push (a stall plus a full_reject), never skipped.
  AccelConfig cfg = slow_link();
  cfg.link.synchronous_stories = false;
  LinkRig events(cfg, two_stories(), 2);
  LinkRig ticked(cfg, two_stories(), 2);
  drive_twins(events.link, ticked.link, 0, 80);
  EXPECT_GT(ticked.in.stats().full_rejects, 0U);
  expect_links_equal(events, ticked);
}

/// One HOST_LINK configuration, its stream, and the seed of the stops,
/// answers and drains a sweep case drives it with.
struct LinkCase {
  AccelConfig config;
  std::size_t model_words = 0;
  std::vector<StreamWord> words;
  std::size_t depth = 2;
  std::uint64_t schedule_seed = 0;
  std::string text;  ///< for failure messages
};

/// Seeded case generator in the shape of seabrute's task_generator:
/// get_next() yields case i of the sweep as a pure function of (seed, i),
/// so a failing case reproduces from its number alone.
class LinkCaseGenerator {
 public:
  explicit LinkCaseGenerator(std::uint64_t seed) : seed_(seed) {}

  LinkCase get_next() {
    const std::uint64_t i = next_++;
    numeric::Rng rng(numeric::mix64(seed_ ^ i));
    // Word rates inexact in binary (0.08 is 50 MHz's default rate), and
    // above 1 word/cycle. At 3 MHz every rate is a whole number of
    // words/s, as the link requires.
    constexpr double kWordRates[] = {0.04, 0.08, 0.16, 0.3,
                                     1.0 / 3.0, 1.5, 2.5};
    constexpr double kModelRates[] = {0.3, 0.7, 1.5, 2.0, 8.0 / 3.0};
    constexpr double kClockHz = 3.0e6;
    LinkCase c;
    c.config.clock_hz = kClockHz;
    const double rate = kWordRates[i % std::size(kWordRates)];
    const double model_rate = kModelRates[rng.index(std::size(kModelRates))];
    c.config.link.words_per_second = rate * kClockHz;
    c.config.link.model_words_per_second = model_rate * kClockHz;
    c.config.link.synchronous_stories = rng.index(3) != 0;
    const std::size_t latency = rng.index(2) == 0 ? 0 : 1 + rng.index(9);
    c.config.link.per_story_latency = static_cast<double>(latency) / kClockHz;
    c.config.link.result_latency =
        static_cast<double>(rng.index(4)) / kClockHz;
    c.model_words = rng.index(2) == 0 ? 0 : 1 + rng.index(40);
    c.depth = 2 + rng.index(31);
    const std::size_t stories = 2 + rng.index(3);
    for (std::size_t k = 0; k < stories; ++k) {
      c.words.push_back({StreamOp::kStoryStart, 0});
      c.words.push_back({StreamOp::kSentenceStart, 0});
      const std::size_t context = 1 + rng.index(12);
      for (std::size_t w = 0; w < context; ++w) {
        c.words.push_back({StreamOp::kContextWord, 1});
      }
      c.words.push_back({StreamOp::kQuestionStart, 0});
      c.words.push_back({StreamOp::kQuestionWord, 2});
      c.words.push_back({StreamOp::kEndOfStory, 0});
    }
    c.schedule_seed = rng();
    c.text = "rate " + std::to_string(rate) + ", " +
             std::to_string(c.model_words) + " model words at " +
             std::to_string(model_rate) + ", depth " +
             std::to_string(c.depth) +
             (c.config.link.synchronous_stories ? ", synchronous"
                                                : ", asynchronous") +
             ", story latency " + std::to_string(latency) + ", " +
             std::to_string(stories) + " stories";
    return c;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t next_ = 0;
};

TEST(EventTwins, SeededLinkSweepMatchesPerCycleTicking) {
  // Each case clocks one link twice: event-driven, stopping short of a
  // credit crossing, at it or past it (several credit periods past it
  // while a synchronous host awaits its answer), and ticked every cycle.
  // At each stop the two must agree; then an owed answer may land (at any
  // offset of the credit period) and FIFO_IN may drain, on both.
  constexpr sim::Cycle kHorizon = 20'000;
  LinkCaseGenerator cases(2019);
  std::size_t awaiting_stops = 0;
  std::size_t refusing_cases = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    const LinkCase c = cases.get_next();
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.text);
    LinkRig events(c.config, c.words, c.depth, c.model_words);
    LinkRig ticked(c.config, c.words, c.depth, c.model_words);
    numeric::Rng rng(c.schedule_seed);
    const double rate = c.config.link.words_per_second / c.config.clock_hz;
    const auto period =
        static_cast<sim::Cycle>(rate < 1.0 ? std::ceil(1.0 / rate) : 1.0);
    // ends[k]: stories whose kEndOfStory is among the first k words.
    std::vector<std::size_t> ends(c.words.size() + 1, 0);
    for (std::size_t k = 0; k < c.words.size(); ++k) {
      ends[k + 1] = ends[k] + (c.words[k].op == StreamOp::kEndOfStory ? 1 : 0);
    }
    const std::size_t stories = ends.back();
    std::size_t answered = 0;
    sim::Cycle now = 0;
    while (!ticked.link.all_words_sent() || answered < stories ||
           !ticked.out.empty()) {
      ASSERT_LT(now, kHorizon) << "the link never finished";
      const auto pushed = static_cast<std::size_t>(ticked.in.stats().pushes);
      const std::size_t sent =
          ends[pushed > c.model_words ? pushed - c.model_words : 0];
      const sim::Cycle next = *events.link.next_activity(now);
      sim::Cycle stop = now + 1;
      if (next == sim::kNever) {
        ++awaiting_stops;
        stop = now + (1 + rng.index(4)) * period + rng.index(period);
      } else if (next > now) {
        switch (rng.index(3)) {
          case 0:
            stop = now + 1 + rng.index(next - now);  // up to the crossing
            break;
          case 1:
            stop = next;
            break;
          default:
            stop = next + 1 + rng.index(3 * period);
            break;
        }
      }
      stop = std::min(stop, kHorizon);
      drive_twins(events.link, ticked.link, now, stop);
      now = stop;
      expect_links_equal(events, ticked);
      EXPECT_EQ(events.link.next_activity(now),
                ticked.link.next_activity(now));
      if (::testing::Test::HasFailure()) {
        return;
      }
      if (sent > answered && (next == sim::kNever || rng.index(3) == 0)) {
        events.out.push(1);
        ticked.out.push(1);
        ++answered;
      }
      if (rng.index(3) == 0) {
        while (ticked.in.try_pop()) {
          (void)events.in.try_pop();
        }
      }
    }
    refusing_cases += ticked.in.stats().full_rejects > 0 ? 1 : 0;
  }
  // The sweep reached the paths it is for.
  EXPECT_GT(awaiting_stops, 1000U);
  EXPECT_GT(refusing_cases, 100U);
}

DeviceProgram tiny_program() {
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
  return p;
}

/// HOST_LINK + CONTROL + FIFO_IN, coupled as Accelerator::run wires
/// them: a cold upload of tiny_program() (36 model words), then a story
/// streamed word by word into CONTROL's command queue. The story is
/// longer than the credit the upload leaves, so the credit's exact value
/// shows in when the last words go out.
struct UploadRig {
  UploadRig(const AccelConfig& cfg, std::size_t depth)
      : program(tiny_program()),
        state(program),
        in("IN", depth),
        out("OUT", 4),
        cmds("CMD", 128),
        link(cfg, state.program.model_words(), story(), in, out),
        control(state, in, cmds, &link) {}

  static std::vector<StreamWord> story() {
    std::vector<StreamWord> words = {{StreamOp::kStoryStart, 0},
                                     {StreamOp::kSentenceStart, 0}};
    for (std::int32_t w = 0; w < 60; ++w) {
      words.push_back({StreamOp::kContextWord, w % 4});
    }
    words.push_back({StreamOp::kQuestionStart, 0});
    words.push_back({StreamOp::kQuestionWord, 1});
    words.push_back({StreamOp::kEndOfStory, 0});
    return words;
  }

  /// One cycle of the pair, in Accelerator::run's order.
  void tick() {
    link.tick();
    control.tick();
  }

  DeviceProgram program;
  AcceleratorState state;
  sim::Fifo<StreamWord> in;
  sim::Fifo<std::int32_t> out;
  sim::Fifo<StreamWord> cmds;
  HostLinkModule link;
  ControlModule control;
};

/// Clocks `rig` to cycle `until` as run_events does, except that no skip
/// spans more than `stride` cycles, so skips end anywhere inside an
/// upload window. Returns the widest window seen; `opened_at` gains the
/// FIFO_IN level of each cycle boundary at which a window opened.
sim::Cycle clock_in_strides(UploadRig& rig, sim::Cycle until,
                            sim::Cycle stride,
                            std::set<std::size_t>& opened_at) {
  sim::Cycle widest = 0;
  sim::Cycle c = 0;
  while (c < until) {
    const sim::Cycle window = rig.link.upload_window();
    if (window > 0) {
      opened_at.insert(rig.in.size());
    }
    widest = std::max(widest, window);
    sim::Cycle target = until - c > stride ? c + stride : until;
    for (const std::optional<sim::Cycle> next :
         {rig.link.next_activity(c), rig.control.next_activity(c)}) {
      target = next.has_value() ? std::min(target, *next) : c;
    }
    if (target > c) {
      rig.link.skip(target - c);
      rig.control.skip(target - c);
      c = target;
      continue;
    }
    rig.tick();
    ++c;
  }
  return widest;
}

void expect_rigs_equal(const UploadRig& a, const UploadRig& b) {
  EXPECT_EQ(a.in.size(), b.in.size());
  expect_fifo_equal(a.in.stats(), b.in.stats());
  expect_fifo_equal(a.cmds.stats(), b.cmds.stats());
  expect_stats_equal(a.link.stats(), b.link.stats());
  expect_stats_equal(a.control.stats(), b.control.stats());
  EXPECT_EQ(a.link.link_active_cycles(), b.link.link_active_cycles());
  EXPECT_EQ(a.link.all_words_sent(), b.link.all_words_sent());
  EXPECT_EQ(a.state.model_words_seen, b.state.model_words_seen);
  EXPECT_EQ(a.state.model_loaded, b.state.model_loaded);
  EXPECT_EQ(a.state.story_active, b.state.story_active);
}

TEST(EventTwins, UploadWindowSkipsInAnyPrefix) {
  // Cut the coupled upload at every cycle, skipping in strides of 1, 3
  // and unbounded: HOST_LINK's pushes, refusals and credit, CONTROL's
  // model words and FIFO_IN's stats and level must match a ticked twin at
  // each cut, and so must the model words left in FIFO_IN, which CONTROL
  // pops in bulk, and the story words the leftover credit streams
  // afterwards at the slower word rate. A window opens from any FIFO_IN
  // level, so FIFO_IN fills inside it: over the model rates, windows open
  // at every level from 1 to depth - 1.
  const sim::Cycle model_words = tiny_program().model_words();
  for (const std::size_t depth : {1U, 2U, 5U}) {
    std::set<std::size_t> opened_at;
    for (const double rate : {0.7, 1.0, 1.3, 1.5, 2.0, 8.0 / 3.0}) {
      AccelConfig cfg = slow_link();
      // At 3 MHz 8/3 words/cycle is a whole number of words/s; the story
      // words keep slow_link()'s 0.3 words/cycle.
      cfg.clock_hz = 3.0e6;
      cfg.link.words_per_second = 0.9e6;
      cfg.link.model_words_per_second = rate * cfg.clock_hz;
      cfg.link.synchronous_stories = false;
      const bool opens = rate > 1.0 && depth >= 2;
      sim::Cycle widest = 0;
      for (sim::Cycle until = 1; until < model_words + 200; ++until) {
        for (const sim::Cycle stride : {sim::Cycle{1}, sim::Cycle{3},
                                        sim::kNever}) {
          SCOPED_TRACE(std::to_string(rate) + " words/cycle, depth " +
                       std::to_string(depth) + ", until " +
                       std::to_string(until) + ", stride " +
                       std::to_string(stride));
          UploadRig events(cfg, depth);
          UploadRig ticked(cfg, depth);
          widest = std::max(widest,
                            clock_in_strides(events, until, stride, opened_at));
          for (sim::Cycle c = 0; c < until; ++c) {
            ticked.tick();
          }
          expect_rigs_equal(events, ticked);
        }
      }
      SCOPED_TRACE(std::to_string(rate) + " words/cycle, depth " +
                   std::to_string(depth));
      if (opens) {
        EXPECT_GT(widest, 0U);
      } else {
        EXPECT_EQ(widest, 0U);
      }
    }
    std::set<std::size_t> every_level;
    for (std::size_t level = 1; level < depth; ++level) {
      every_level.insert(level);
    }
    EXPECT_EQ(opened_at, every_level) << "depth " << depth;
  }
}

TEST(EventTwins, UploadWindowNeedsTheCoupledDrain) {
  // A link whose FIFO_IN nobody drains never opens a window, even one
  // word short of full: the next cycle would refuse instead of push.
  AccelConfig cfg = slow_link();
  cfg.link.model_words_per_second = 2.0 * cfg.clock_hz;
  sim::Fifo<StreamWord> in("IN", 3);
  sim::Fifo<std::int32_t> out("OUT", 4);
  HostLinkModule link(cfg, 36, {}, in, out);
  link.tick();  // two words: one short of full
  ASSERT_EQ(in.size(), 2U);
  EXPECT_EQ(link.upload_window(), 0U);
  EXPECT_EQ(link.next_activity(1), 1U);

  sim::Fifo<StreamWord> other("OTHER", 3);
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  sim::Fifo<StreamWord> cmds("CMD", 4);
  EXPECT_THROW((void)ControlModule(state, other, cmds, &link),
               std::invalid_argument);
  ControlModule control(state, in, cmds, &link);
  EXPECT_EQ(link.upload_window(), 36U - 1U - 2U);
  EXPECT_EQ(link.next_activity(1), 1U + 33U);
  EXPECT_EQ(control.next_activity(1), 1U + 33U);
}

/// HOST_LINK + CONTROL + INPUT&WRITE, the whole coupled chain as
/// Accelerator::run wires it: a cold upload of tiny_program() or none,
/// then one story of empty and non-empty sentences streamed into
/// INPUT&WRITE.
struct ChainRig {
  ChainRig(const AccelConfig& cfg, bool cold)
      : program(tiny_program()),
        state(loaded_state(program, cold)),
        in("IN", cfg.fifo_depth),
        out("OUT", 4),
        cmds("CMD", cfg.fifo_depth),
        link(cfg, cold ? program.model_words() : 0, story(), in, out),
        control(state, in, cmds, &link),
        input_write(state, cfg, cmds, &control) {}

  static AcceleratorState loaded_state(const DeviceProgram& program,
                                       bool cold) {
    AcceleratorState state(program);
    if (!cold) {
      state.model_words_seen = program.model_words();
      state.model_loaded = true;
    }
    return state;
  }

  static std::vector<StreamWord> story() {
    std::vector<StreamWord> words = {{StreamOp::kStoryStart, 0}};
    for (const std::int32_t length : {3, 0, 5, 2, 1}) {
      words.push_back({StreamOp::kSentenceStart, 0});
      for (std::int32_t w = 0; w < length; ++w) {
        words.push_back({StreamOp::kContextWord, w % 4});
      }
    }
    words.push_back({StreamOp::kQuestionStart, 0});
    words.push_back({StreamOp::kQuestionWord, 1});
    words.push_back({StreamOp::kQuestionWord, 2});
    words.push_back({StreamOp::kEndOfStory, 0});
    return words;
  }

  /// One cycle of the chain, in Accelerator::run's order.
  void tick() {
    link.tick();
    control.tick();
    input_write.tick();
  }

  DeviceProgram program;
  AcceleratorState state;
  sim::Fifo<StreamWord> in;
  sim::Fifo<std::int32_t> out;
  sim::Fifo<StreamWord> cmds;
  HostLinkModule link;
  ControlModule control;
  InputWriteModule input_write;
};

/// Clocks `rig` from cycle `from` to `until` as run_events does, no skip
/// spanning more than `stride` cycles. Returns the most story words one
/// skip streamed.
std::size_t clock_chain(ChainRig& rig, sim::Cycle from, sim::Cycle until,
                        sim::Cycle stride) {
  std::size_t most = 0;
  sim::Cycle c = from;
  while (c < until) {
    sim::Cycle target = until - c > stride ? c + stride : until;
    for (const std::optional<sim::Cycle> next :
         {rig.link.next_activity(c), rig.control.next_activity(c),
          rig.input_write.next_activity(c)}) {
      target = next.has_value() ? std::min(target, *next) : c;
    }
    if (target > c) {
      rig.link.skip(target - c);
      rig.control.skip(target - c);
      rig.input_write.skip(target - c);
      most = std::max(most, rig.link.streamed().words.size());
      c = target;
      continue;
    }
    rig.tick();
    ++c;
  }
  return most;
}

void expect_chains_equal(const ChainRig& a, const ChainRig& b) {
  EXPECT_EQ(a.in.size(), b.in.size());
  EXPECT_EQ(a.cmds.size(), b.cmds.size());
  expect_fifo_equal(a.in.stats(), b.in.stats());
  expect_fifo_equal(a.cmds.stats(), b.cmds.stats());
  expect_stats_equal(a.link.stats(), b.link.stats());
  expect_stats_equal(a.control.stats(), b.control.stats());
  expect_stats_equal(a.input_write.stats(), b.input_write.stats());
  EXPECT_EQ(a.link.link_active_cycles(), b.link.link_active_cycles());
  EXPECT_EQ(a.link.all_words_sent(), b.link.all_words_sent());
  EXPECT_EQ(a.state.model_words_seen, b.state.model_words_seen);
  EXPECT_EQ(a.state.model_loaded, b.state.model_loaded);
  EXPECT_EQ(a.state.story_active, b.state.story_active);
  EXPECT_EQ(a.state.slots, b.state.slots);
  EXPECT_EQ(a.state.sentence_open, b.state.sentence_open);
  EXPECT_EQ(a.state.input_done, b.state.input_done);
}

TEST(EventTwins, StoryWindowSkipsInAnyPrefix) {
  // Cut the coupled chain at every cycle of a cold upload and a story,
  // skipping in strides of 1, 3 and unbounded: HOST_LINK's pushes and
  // credit, CONTROL's forwards, INPUT&WRITE's ops, slots, flags and busy
  // cycles (a flush's countdown cut anywhere), and both FIFOs' stats must
  // match a ticked twin at each cut. Word rates sit on both sides of the
  // spacing rule; only ⌊clock/rate⌋ > bram_write opens a story window.
  constexpr double kClockHz = 3.0e6;
  for (const sim::Cycle bram_write :
       {sim::Cycle{0}, sim::Cycle{1}, sim::Cycle{3}}) {
    for (const sim::Cycle spacing : {bram_write, bram_write + 1}) {
      if (spacing == 0) {
        continue;
      }
      const auto s = static_cast<double>(spacing);
      for (const double rate : {1.0 / s, 1.0 / (s + 0.5)}) {
        for (const double latency : {0.0, 2.0 / kClockHz}) {
          for (const bool cold : {false, true}) {
            for (const std::size_t depth : {1U, 2U, 4U}) {
              AccelConfig cfg;
              cfg.clock_hz = kClockHz;
              cfg.timing.bram_write = bram_write;
              cfg.fifo_depth = depth;
              cfg.link.words_per_second = std::round(rate * kClockHz);
              cfg.link.model_words_per_second = 1.5 * kClockHz;
              cfg.link.per_story_latency = latency;
              const std::string text =
                  "bram_write " + std::to_string(bram_write) + ", " +
                  std::to_string(rate) + " words/cycle, story latency " +
                  std::to_string(latency * kClockHz) +
                  (cold ? ", cold" : ", resident") + ", depth " +
                  std::to_string(depth);
              SCOPED_TRACE(text);
              // The cycle INPUT&WRITE sees kEndOfStory, and a little past.
              ChainRig probe(cfg, cold);
              sim::Cycle end = 0;
              while (!probe.state.input_done) {
                ASSERT_LT(end, 10'000U);
                probe.tick();
                ++end;
              }
              std::size_t most = 0;
              for (sim::Cycle until = 1; until < end + 8; ++until) {
                for (const sim::Cycle stride :
                     {sim::Cycle{1}, sim::Cycle{3}, sim::kNever}) {
                  SCOPED_TRACE("until " + std::to_string(until) +
                               ", stride " + std::to_string(stride));
                  ChainRig events(cfg, cold);
                  ChainRig ticked(cfg, cold);
                  most =
                      std::max(most, clock_chain(events, 0, until, stride));
                  for (sim::Cycle c = 0; c < until; ++c) {
                    ticked.tick();
                  }
                  expect_chains_equal(events, ticked);
                  if (::testing::Test::HasFailure()) {
                    return;
                  }
                }
              }
              // Resident, the window carries every word between the
              // story's kStoryStart and its kEndOfStory. After a cold
              // upload it may open later or not at all: model words left
              // in FIFO_IN, or credit the upload left, can hold the story
              // words back so that FIFO_IN never empties.
              const std::size_t data_words = ChainRig::story().size() - 2;
              if (spacing == bram_write) {
                EXPECT_EQ(most, 0U);
              } else if (!cold) {
                EXPECT_EQ(most, data_words);
              }
            }
          }
        }
      }
    }
  }
}

TEST(EventTwins, StoryWindowWaitsOutTheSinksCountdown) {
  // A backlog in CMD_FIFO (here two words put there from outside, at
  // every offset of the link's word period) lets INPUT&WRITE end it with
  // a sentence flush whose countdown outlasts the link's next push: that
  // word then waits in CMD_FIFO, so no story window may open until the
  // countdown ends before the next push. Cut at every cycle after the
  // backlog, in strides of 1, 3 and unbounded.
  AccelConfig cfg;
  cfg.clock_hz = 3.0e6;
  cfg.timing.bram_write = 3;
  cfg.link.words_per_second = 0.75e6;  // a word every 4 cycles
  cfg.link.per_story_latency = 0.0;
  for (sim::Cycle at = 1; at < 12; ++at) {
    for (sim::Cycle until = at + 1; until < at + 100; ++until) {
      for (const sim::Cycle stride : {sim::Cycle{1}, sim::Cycle{3},
                                      sim::kNever}) {
        SCOPED_TRACE("backlog at " + std::to_string(at) + ", until " +
                     std::to_string(until) + ", stride " +
                     std::to_string(stride));
        ChainRig events(cfg, false);
        ChainRig ticked(cfg, false);
        (void)clock_chain(events, 0, at, stride);
        for (sim::Cycle c = 0; c < at; ++c) {
          ticked.tick();
        }
        for (ChainRig* rig : {&events, &ticked}) {
          rig->cmds.push({StreamOp::kContextWord, 1});
          rig->cmds.push({StreamOp::kSentenceStart, 0});
        }
        (void)clock_chain(events, at, until, stride);
        for (sim::Cycle c = at; c < until; ++c) {
          ticked.tick();
        }
        expect_chains_equal(events, ticked);
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
    }
  }
}

TEST(EventTwins, StoryWindowOpensAtEveryPaperClock) {
  // At the default link a story word lands every 6.25 to 25 cycles at 25
  // to 100 MHz, against 1 + bram_write = 2: at every paper clock one
  // event carries all of a story's words between kStoryStart and
  // kEndOfStory, cold and resident, and the chain still matches a ticked
  // twin.
  for (const double mhz : {25.0, 50.0, 75.0, 100.0}) {
    for (const bool cold : {false, true}) {
      SCOPED_TRACE(std::to_string(mhz) + " MHz" +
                   (cold ? ", cold" : ", resident"));
      AccelConfig cfg;
      cfg.clock_hz = mhz * 1.0e6;
      ChainRig events(cfg, cold);
      ChainRig ticked(cfg, cold);
      sim::Cycle end = 0;
      while (!ticked.state.input_done) {
        ASSERT_LT(end, 100'000U);
        ticked.tick();
        ++end;
      }
      EXPECT_EQ(clock_chain(events, 0, end, sim::kNever),
                ChainRig::story().size() - 2);
      expect_chains_equal(events, ticked);
    }
  }
}

TEST(EventTwins, ChainCouplingChecksItsWiring) {
  // Each module couples to the one it drains: the wrong FIFO, or a link
  // that uploads other than the model words CONTROL has left to store,
  // is refused at construction.
  const DeviceProgram prog = tiny_program();
  AccelConfig cfg;
  sim::Fifo<StreamWord> in("IN", 4);
  sim::Fifo<std::int32_t> out("OUT", 4);
  sim::Fifo<StreamWord> cmds("CMD", 4);
  sim::Fifo<StreamWord> other("OTHER", 4);
  HostLinkModule link(cfg, prog.model_words(), {}, in, out);
  AcceleratorState state(prog);
  ControlModule control(state, in, cmds, &link);
  EXPECT_THROW((void)InputWriteModule(state, cfg, other, &control),
               std::invalid_argument);

  AcceleratorState resident(prog);
  resident.model_words_seen = prog.model_words();
  resident.model_loaded = true;
  HostLinkModule uploading(cfg, prog.model_words(), {}, in, out);
  EXPECT_THROW((void)ControlModule(resident, in, cmds, &uploading),
               std::invalid_argument);
}

TEST(EventTwins, ControlTicksWhenItsTickWouldThrow) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<StreamWord> cmds("CMD", 1);
  ControlModule control(state, in, cmds);
  EXPECT_EQ(control.next_activity(3), sim::kNever);  // empty stream

  in.push({StreamOp::kStoryStart, 0});  // before the model is loaded
  EXPECT_EQ(control.next_activity(3), 3U);
  EXPECT_THROW(control.tick(), std::logic_error);

  AcceleratorState loaded(prog);
  loaded.model_loaded = true;
  sim::Fifo<StreamWord> in2("IN", 8);
  ControlModule control2(loaded, in2, cmds);
  in2.push({StreamOp::kContextWord, 1});  // outside a story
  EXPECT_EQ(control2.next_activity(9), 9U);
  EXPECT_THROW(control2.tick(), std::logic_error);
}

TEST(EventTwins, BlockedControlStallsInBulk) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  state.model_loaded = true;
  state.story_active = true;
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<StreamWord> cmds("CMD", 1);
  ControlModule control(state, in, cmds);

  in.push({StreamOp::kStoryStart, 0});  // the datapath is still busy
  EXPECT_EQ(control.next_activity(0), sim::kNever);
  control.skip(40);
  control.tick();
  EXPECT_EQ(control.stats().stall_cycles, 41U);

  (void)in.try_pop();
  cmds.push({StreamOp::kSentenceStart, 0});
  in.push({StreamOp::kContextWord, 1});  // CMD_FIFO is full
  EXPECT_EQ(control.next_activity(41), sim::kNever);
  control.skip(9);
  EXPECT_EQ(control.stats().stall_cycles, 50U);
  (void)cmds.try_pop();  // INPUT_WRITE drains it: CONTROL may move
  EXPECT_EQ(control.next_activity(50), 50U);
}

TEST(EventTwins, InputWritePopsOnTheTickAfterItsCountdown) {
  DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  state.begin_story();
  AccelConfig cfg;
  cfg.timing.bram_write = 5;
  sim::Fifo<StreamWord> cmds("CMD", 8);
  InputWriteModule module(state, cfg, cmds);

  cmds.push({StreamOp::kContextWord, 1});
  cmds.push({StreamOp::kSentenceStart, 0});  // flushes: 1 + 5 cycles
  EXPECT_EQ(module.next_activity(0), 0U);
  module.tick();  // context word: done within its own tick
  EXPECT_EQ(module.next_activity(1), 1U);
  module.tick();  // sentence flush: 5 countdown ticks remain
  EXPECT_EQ(module.next_activity(2), sim::kNever);  // nothing queued
  cmds.push({StreamOp::kQuestionStart, 0});
  EXPECT_EQ(module.next_activity(2), 7U);
  module.skip(5);
  EXPECT_EQ(module.stats().busy_cycles, 7U);
  EXPECT_EQ(cmds.size(), 1U);
  module.tick();  // cycle 7 pops the question start
  EXPECT_TRUE(cmds.empty());
}

TEST(EventTwins, DatapathActsOnTheTickThatEndsItsCountdown) {
  // READ + MEM + OUTPUT on one story's features, both clocks.
  const auto run = [](bool events) {
    DeviceProgram prog = tiny_program();
    prog.hops = 2;
    for (std::size_t i = 0; i < 4; ++i) {
      prog.w_o(i, 1) = Fx::from_float(static_cast<float>(i + 1));
    }
    AccelConfig cfg;
    cfg.timing.lane_width = 1;
    // The story's values: two slots and a key, through the value pass.
    const DatapathTables tables(prog, cfg);
    Datapath datapath(prog, cfg, tables);
    for (const auto& [a, c] :
         {std::pair{FxVector{Fx::from_float(1.0F), Fx{}},
                    FxVector{Fx{}, Fx::from_float(4.0F)}},
          std::pair{FxVector{Fx::from_float(0.5F), Fx::from_float(0.5F)},
                    FxVector{Fx::from_float(1.0F), Fx{}}}}) {
      std::ranges::copy(a, datapath.mem_a.row(datapath.slots).begin());
      std::ranges::copy(c, datapath.mem_c.row(datapath.slots).begin());
      ++datapath.slots;
    }
    datapath.reg_k = {Fx::from_float(1.0F), Fx{}};
    datapath.read_hops();
    const StoryValues values = datapath.search(datapath.reg_h);

    AcceleratorState state(prog);
    state.begin_story();
    state.slots = datapath.slots;
    state.input_done = true;
    sim::Fifo<std::int32_t> out("OUT", 1);
    ReadModule read(state, cfg);
    MemModule mem(state, cfg);
    OutputModule output(state, cfg, out, std::span(&values, 1));
    sim::Simulator sim;
    const auto done = [&] { return !out.empty(); };
    if (events) {
      (void)sim.run_events(done, 10'000, sim::kNever, read, mem, output);
    } else {
      (void)sim.run_until(done, 10'000, read, mem, output);
    }
    return std::tuple(sim.now(), *out.peek(), read.stats(), mem.stats(),
                      output.stats());
  };
  const auto ticked = run(false);
  const auto events = run(true);
  EXPECT_EQ(std::get<0>(events), std::get<0>(ticked));
  EXPECT_EQ(std::get<1>(events), std::get<1>(ticked));
  expect_stats_equal(std::get<2>(events), std::get<2>(ticked));
  expect_stats_equal(std::get<3>(events), std::get<3>(ticked));
  expect_stats_equal(std::get<4>(events), std::get<4>(ticked));
}

}  // namespace
}  // namespace mann::accel
