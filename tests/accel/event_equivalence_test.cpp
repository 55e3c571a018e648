// Differential tests of the event-driven device clock. Accelerator::run
// jumps quiescent stretches (Simulator::run_events plus each module's
// next_activity/skip); detail::simulate_per_cycle ticks the same module
// graph on every cycle. Every field of the two RunResults must agree, on
// every configuration axis the benches sweep, cold and warm. Module-level
// twins then pin the accounting traps one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "accel/accelerator.hpp"
#include "accel/control.hpp"
#include "accel/host_link.hpp"
#include "accel/input_write.hpp"
#include "accel/mem_module.hpp"
#include "accel/output_module.hpp"
#include "accel/read_module.hpp"
#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/trainer.hpp"
#include "sim/simulator.hpp"

namespace mann::accel {
namespace {

void expect_ops_equal(const sim::OpCounts& a, const sim::OpCounts& b) {
  EXPECT_EQ(a.mac, b.mac);
  EXPECT_EQ(a.add, b.add);
  EXPECT_EQ(a.exp, b.exp);
  EXPECT_EQ(a.div, b.div);
  EXPECT_EQ(a.mem_read, b.mem_read);
  EXPECT_EQ(a.mem_write, b.mem_write);
  EXPECT_EQ(a.compare, b.compare);
}

void expect_fifo_equal(const sim::FifoStats& a, const sim::FifoStats& b) {
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.pops, b.pops);
  EXPECT_EQ(a.full_rejects, b.full_rejects);
  EXPECT_EQ(a.max_occupancy, b.max_occupancy);
}

void expect_stats_equal(const sim::ModuleStats& a, const sim::ModuleStats& b) {
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  expect_ops_equal(a.ops, b.ops);
}

/// Every field of a RunResult, story by story and module by module.
void expect_identical(const RunResult& ticked, const RunResult& events) {
  EXPECT_EQ(events.total_cycles, ticked.total_cycles);
  EXPECT_EQ(events.seconds, ticked.seconds);
  EXPECT_EQ(events.stream_words, ticked.stream_words);
  EXPECT_EQ(events.link_active_cycles, ticked.link_active_cycles);
  ASSERT_EQ(events.stories.size(), ticked.stories.size());
  for (std::size_t i = 0; i < ticked.stories.size(); ++i) {
    SCOPED_TRACE("story " + std::to_string(i));
    EXPECT_EQ(events.stories[i].prediction, ticked.stories[i].prediction);
    EXPECT_EQ(events.stories[i].output_probes,
              ticked.stories[i].output_probes);
    EXPECT_EQ(events.stories[i].early_exit, ticked.stories[i].early_exit);
    EXPECT_EQ(events.stories[i].finish_cycle, ticked.stories[i].finish_cycle);
  }
  ASSERT_EQ(events.modules.size(), ticked.modules.size());
  for (std::size_t i = 0; i < ticked.modules.size(); ++i) {
    SCOPED_TRACE(ticked.modules[i].name);
    EXPECT_EQ(events.modules[i].name, ticked.modules[i].name);
    expect_stats_equal(events.modules[i].stats, ticked.modules[i].stats);
  }
  expect_ops_equal(events.total_ops, ticked.total_ops);
  {
    SCOPED_TRACE("FIFO_IN");
    expect_fifo_equal(events.fifo_in_stats, ticked.fifo_in_stats);
  }
  {
    SCOPED_TRACE("FIFO_OUT");
    expect_fifo_equal(events.fifo_out_stats, ticked.fifo_out_stats);
  }
}

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
  // words/cycle, inexact in binary, so the skip replays every add; at
  // 100 MHz it is 2 and the integer closed form applies.
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

/// Drives `module` to cycle `until` the way run_events would — skipping
/// to its next activity, never past `until` or `inject_at`, where
/// `inject` delivers external input before that cycle's tick — while
/// `twin` ticks every cycle with the same injection.
void drive_twins(sim::Module& module, sim::Module& twin, sim::Cycle until,
                 sim::Cycle inject_at,
                 const std::function<void()>& inject_module,
                 const std::function<void()>& inject_twin) {
  for (sim::Cycle c = 0; c < until; ++c) {
    if (c == inject_at) {
      inject_twin();
    }
    twin.tick();
  }
  sim::Cycle c = 0;
  while (c < until) {
    if (c == inject_at) {
      inject_module();
    }
    const std::optional<sim::Cycle> next = module.next_activity(c);
    ASSERT_TRUE(next.has_value());
    sim::Cycle target = std::min(*next, until);
    if (c < inject_at) {
      target = std::min(target, inject_at);
    }
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
          std::size_t depth)
      : in("IN", depth),
        out("OUT", 4),
        link(cfg, 0, std::move(words), in, out) {}
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
    drive_twins(
        events.link, ticked.link, answer_at + 40, answer_at,
        [&] { events.out.push(1); }, [&] { ticked.out.push(1); });
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
    drive_twins(events.link, ticked.link, until, sim::kNever, [] {}, [] {});
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
  drive_twins(events.link, ticked.link, 80, sim::kNever, [] {}, [] {});
  EXPECT_GT(ticked.in.stats().full_rejects, 0U);
  expect_links_equal(events, ticked);
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
      : state(tiny_program()),
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

  [[nodiscard]] std::vector<sim::Module*> modules() {
    return {&link, &control};
  }

  AcceleratorState state;
  sim::Fifo<StreamWord> in;
  sim::Fifo<std::int32_t> out;
  sim::Fifo<InputCmd> cmds;
  HostLinkModule link;
  ControlModule control;
};

/// Clocks `rig` to cycle `until` as run_events does, except that no skip
/// spans more than `stride` cycles, so skips end anywhere inside an
/// upload window. Returns the widest window seen.
sim::Cycle clock_in_strides(UploadRig& rig, sim::Cycle until,
                            sim::Cycle stride) {
  sim::Cycle widest = 0;
  sim::Cycle c = 0;
  while (c < until) {
    widest = std::max(widest, rig.link.upload_window());
    sim::Cycle target = until - c > stride ? c + stride : until;
    for (const sim::Module* m : rig.modules()) {
      const std::optional<sim::Cycle> next = m->next_activity(c);
      target = next.has_value() ? std::min(target, *next) : c;
    }
    if (target > c) {
      for (sim::Module* m : rig.modules()) {
        m->skip(target - c);
      }
      c = target;
      continue;
    }
    for (sim::Module* m : rig.modules()) {
      m->tick();
    }
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
  // model words and FIFO_IN's stats must match a ticked twin at each cut,
  // and so must the story words the leftover credit streams afterwards
  // at the slower word rate.
  const sim::Cycle model_words = tiny_program().model_words();
  for (const double rate : {0.7, 1.0, 1.3, 1.5, 2.0, 8.0 / 3.0}) {
    for (const std::size_t depth : {1U, 2U, 5U}) {
      AccelConfig cfg = slow_link();
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
          widest = std::max(widest, clock_in_strides(events, until, stride));
          for (sim::Cycle c = 0; c < until; ++c) {
            for (sim::Module* m : ticked.modules()) {
              m->tick();
            }
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
  AcceleratorState state(tiny_program());
  sim::Fifo<InputCmd> cmds("CMD", 4);
  EXPECT_THROW((void)ControlModule(state, other, cmds, &link),
               std::invalid_argument);
  ControlModule control(state, in, cmds, &link);
  EXPECT_EQ(link.upload_window(), 36U - 1U - 2U);
  EXPECT_EQ(link.next_activity(1), 1U + 33U);
  EXPECT_EQ(control.next_activity(1), 1U + 33U);
}

TEST(EventTwins, ControlTicksWhenItsTickWouldThrow) {
  AcceleratorState state(tiny_program());
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<InputCmd> cmds("CMD", 1);
  ControlModule control(state, in, cmds);
  EXPECT_EQ(control.next_activity(3), sim::kNever);  // empty stream

  in.push({StreamOp::kStoryStart, 0});  // before the model is loaded
  EXPECT_EQ(control.next_activity(3), 3U);
  EXPECT_THROW(control.tick(), std::logic_error);

  AcceleratorState loaded(tiny_program());
  loaded.model_loaded = true;
  sim::Fifo<StreamWord> in2("IN", 8);
  ControlModule control2(loaded, in2, cmds);
  in2.push({StreamOp::kContextWord, 1});  // outside a story
  EXPECT_EQ(control2.next_activity(9), 9U);
  EXPECT_THROW(control2.tick(), std::logic_error);
}

TEST(EventTwins, BlockedControlStallsInBulk) {
  AcceleratorState state(tiny_program());
  state.model_loaded = true;
  state.story_active = true;
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<InputCmd> cmds("CMD", 1);
  ControlModule control(state, in, cmds);

  in.push({StreamOp::kStoryStart, 0});  // the datapath is still busy
  EXPECT_EQ(control.next_activity(0), sim::kNever);
  control.skip(40);
  control.tick();
  EXPECT_EQ(control.stats().stall_cycles, 41U);

  (void)in.try_pop();
  cmds.push({InputCmdKind::kSentenceStart, 0});
  in.push({StreamOp::kContextWord, 1});  // CMD_FIFO is full
  EXPECT_EQ(control.next_activity(41), sim::kNever);
  control.skip(9);
  EXPECT_EQ(control.stats().stall_cycles, 50U);
  (void)cmds.try_pop();  // INPUT_WRITE drains it: CONTROL may move
  EXPECT_EQ(control.next_activity(50), 50U);
}

TEST(EventTwins, InputWritePopsOnTheTickAfterItsCountdown) {
  DeviceProgram prog = tiny_program();
  AcceleratorState state(std::move(prog));
  state.begin_story();
  AccelConfig cfg;
  cfg.timing.bram_write = 5;
  sim::Fifo<InputCmd> cmds("CMD", 8);
  InputWriteModule module(state, cfg, cmds);

  cmds.push({InputCmdKind::kContextWord, 1});
  cmds.push({InputCmdKind::kSentenceStart, 0});  // flushes: 1 + 5 cycles
  EXPECT_EQ(module.next_activity(0), 0U);
  module.tick();  // context word: done within its own tick
  EXPECT_EQ(module.next_activity(1), 1U);
  module.tick();  // sentence flush: 5 countdown ticks remain
  EXPECT_EQ(module.next_activity(2), sim::kNever);  // nothing queued
  cmds.push({InputCmdKind::kQuestionStart, 0});
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
    AcceleratorState state(std::move(prog));
    state.begin_story();
    state.mem_a = {{Fx::from_float(1.0F), Fx{}},
                   {Fx::from_float(0.5F), Fx::from_float(0.5F)}};
    state.mem_c = {{Fx{}, Fx::from_float(4.0F)},
                   {Fx::from_float(1.0F), Fx{}}};
    state.reg_k = {Fx::from_float(1.0F), Fx{}};
    state.input_done = true;
    AccelConfig cfg;
    cfg.timing.lane_width = 1;
    sim::Fifo<std::int32_t> out("OUT", 1);
    ReadModule read(state, cfg);
    MemModule mem(state, cfg);
    OutputModule output(state, cfg, out);
    sim::Simulator sim;
    sim.add_module(read);
    sim.add_module(mem);
    sim.add_module(output);
    const auto done = [&] { return !out.empty(); };
    if (events) {
      (void)sim.run_events(done, 10'000);
    } else {
      (void)sim.run_until(done, 10'000);
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
