// Module-level tests of the accelerator: each of Fig. 1's blocks driven
// in isolation against hand-built device state, its values through the
// value pass (Datapath) and its timing through its module, plus
// host-link behaviour that the end-to-end tests cannot pin down (rates,
// latency charging, synchronous gating).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/control.hpp"
#include "accel/datapath.hpp"
#include "accel/host_link.hpp"
#include "accel/input_write.hpp"
#include "accel/mem_module.hpp"
#include "accel/output_module.hpp"
#include "accel/read_module.hpp"
#include "sim/simulator.hpp"

namespace mann::accel {
namespace {

/// A tiny hand-built program: V=4 classes, E=2, 1 hop, identity-ish
/// weights chosen so every expected value can be computed by hand.
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
  // Word w embeds to a_w = (w+1, 0) in A and (0, w+1) in C.
  for (std::size_t w = 0; w < 4; ++w) {
    p.emb_a(w, 0) = Fx::from_float(static_cast<float>(w + 1));
    p.emb_c(w, 1) = Fx::from_float(static_cast<float>(w + 1));
    p.emb_q(w, 0) = Fx::from_float(1.0F);
    p.emb_q(w, 1) = Fx::from_float(0.5F);
  }
  // W_r = 0 so h == r exactly (Eq. 4 degenerates to the read vector).
  // W_o row i scores h[1] scaled by (i+1).
  for (std::size_t i = 0; i < 4; ++i) {
    p.w_o(i, 1) = Fx::from_float(static_cast<float>(i + 1));
  }
  return p;
}

AccelConfig tiny_config() {
  AccelConfig cfg;
  cfg.clock_hz = 1.0e6;
  cfg.timing.lane_width = 2;
  return cfg;
}

/// One story of the given sentences and question.
data::EncodedStory story_of(std::vector<std::vector<std::int32_t>> context,
                            std::vector<std::int32_t> question) {
  data::EncodedStory story;
  story.context = std::move(context);
  story.question = std::move(question);
  return story;
}

/// Writes one slot of hand-built bank contents into the datapath.
void load_slot(Datapath& datapath, const FxVector& a, const FxVector& c) {
  std::ranges::copy(a, datapath.mem_a.row(datapath.slots).begin());
  std::ranges::copy(c, datapath.mem_c.row(datapath.slots).begin());
  ++datapath.slots;
}

// ---- INPUT & WRITE ---------------------------------------------------------

TEST(InputWriteModule, AccumulatesAndFlushesSentences) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  state.begin_story();
  const AccelConfig cfg = tiny_config();
  sim::Fifo<StreamWord> cmds("CMD", 16);
  InputWriteModule module(state, cfg, cmds);

  cmds.push({StreamOp::kSentenceStart, 0});
  cmds.push({StreamOp::kContextWord, 1});  // a=(2,0), c=(0,2)
  cmds.push({StreamOp::kContextWord, 2});  // a+=(3,0), c+=(0,3)
  cmds.push({StreamOp::kQuestionStart, 0});
  cmds.push({StreamOp::kQuestionWord, 0});  // q=(1,0.5)
  cmds.push({StreamOp::kEndOfStory, 0});

  for (int i = 0; i < 40 && !state.input_done; ++i) {
    module.tick();
  }
  ASSERT_TRUE(state.input_done);
  ASSERT_EQ(state.slots, 1U);
  // Two context words through two lanes and one question word, E = 2.
  EXPECT_EQ(module.stats().ops.add, 10U);
  EXPECT_EQ(module.stats().ops.mem_write, 4U);

  // The value pass embeds the same story.
  const DatapathTables tables(prog, cfg);
  Datapath datapath(prog, cfg, tables);
  datapath.embed(story_of({{1, 2}}, {0}));
  ASSERT_EQ(datapath.slots, 1U);
  EXPECT_FLOAT_EQ(datapath.mem_a(0, 0).to_float(), 5.0F);
  EXPECT_FLOAT_EQ(datapath.mem_a(0, 1).to_float(), 0.0F);
  EXPECT_FLOAT_EQ(datapath.mem_c(0, 1).to_float(), 5.0F);
  EXPECT_FLOAT_EQ(datapath.reg_k[0].to_float(), 1.0F);
  EXPECT_FLOAT_EQ(datapath.reg_k[1].to_float(), 0.5F);
}

TEST(InputWriteModule, DropsOldestSlotWhenMemoryFull) {
  DeviceProgram prog = tiny_program();
  prog.max_memory = 2;
  AcceleratorState state(prog);
  state.begin_story();
  const AccelConfig cfg = tiny_config();
  sim::Fifo<StreamWord> cmds("CMD", 32);
  InputWriteModule module(state, cfg, cmds);

  for (const std::int32_t w : {0, 1, 2}) {  // three 1-word sentences
    cmds.push({StreamOp::kSentenceStart, 0});
    cmds.push({StreamOp::kContextWord, w});
  }
  cmds.push({StreamOp::kQuestionStart, 0});
  cmds.push({StreamOp::kEndOfStory, 0});
  for (int i = 0; i < 60 && !state.input_done; ++i) {
    module.tick();
  }
  ASSERT_TRUE(state.input_done);
  ASSERT_EQ(state.slots, 2U);

  // The value pass keeps the same two slots: words 1 and 2 (word 0's
  // sentence was evicted).
  const DatapathTables tables(prog, cfg);
  Datapath datapath(prog, cfg, tables);
  datapath.embed(story_of({{0}, {1}, {2}}, {}));
  ASSERT_EQ(datapath.slots, 2U);
  EXPECT_FLOAT_EQ(datapath.mem_a(0, 0).to_float(), 2.0F);
  EXPECT_FLOAT_EQ(datapath.mem_a(1, 0).to_float(), 3.0F);
}

// ---- MEM -------------------------------------------------------------------

TEST(MemModule, ComputesSoftmaxAttentionAndWeightedRead) {
  const DeviceProgram prog = tiny_program();
  const AccelConfig cfg = tiny_config();
  const DatapathTables tables(prog, cfg);
  Datapath datapath(prog, cfg, tables);
  // Two memory slots with known contents.
  load_slot(datapath, {Fx::from_float(1.0F), Fx::from_float(0.0F)},
            {Fx::from_float(0.0F), Fx::from_float(1.0F)});
  load_slot(datapath, {Fx::from_float(3.0F), Fx::from_float(0.0F)},
            {Fx::from_float(0.0F), Fx::from_float(2.0F)});
  datapath.reg_k = {Fx::from_float(1.0F), Fx::from_float(0.0F)};
  datapath.address_and_read();
  // Scores are 1 and 3 -> softmax = (0.119, 0.881).
  ASSERT_EQ(datapath.attention.size(), 2U);
  EXPECT_NEAR(datapath.attention[0].to_float(), 0.1192F, 5e-3F);
  EXPECT_NEAR(datapath.attention[1].to_float(), 0.8808F, 5e-3F);
  // r = a0*(0,1) + a1*(0,2).
  EXPECT_NEAR(datapath.reg_r[1].to_float(), 0.1192F + 2.0F * 0.8808F, 1e-2F);
  EXPECT_NEAR(datapath.reg_r[0].to_float(), 0.0F, 1e-4F);

  // The module's timing over the same two slots.
  AcceleratorState state(prog);
  state.begin_story();
  state.slots = 2;
  state.mem_request = true;
  MemModule module(state, cfg);
  for (int i = 0; i < 200 && !state.mem_done; ++i) {
    module.tick();
  }
  ASSERT_TRUE(state.mem_done);
  EXPECT_FALSE(state.mem_request);
  // Op accounting: 2 slots x 2 dims dots twice (address + read).
  EXPECT_EQ(module.stats().ops.mac, 8U);
  EXPECT_EQ(module.stats().ops.exp, 2U);
  EXPECT_EQ(module.stats().ops.div, 2U);
}

TEST(MemModule, EmptyMemoryIsAProtocolBug) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  state.begin_story();
  state.mem_request = true;
  MemModule module(state, tiny_config());
  EXPECT_THROW(module.tick(), std::logic_error);

  const DatapathTables tables(prog, tiny_config());
  Datapath datapath(prog, tiny_config(), tables);
  datapath.reg_k = {Fx::from_float(1.0F), Fx{}};
  EXPECT_THROW(datapath.address_and_read(), std::logic_error);
}

// ---- READ + MEM recurrence ---------------------------------------------------

TEST(ReadModule, RunsHopsAndRaisesFeaturesReady) {
  DeviceProgram prog = tiny_program();
  prog.hops = 2;
  AcceleratorState state(prog);
  state.begin_story();
  state.slots = 1;
  state.input_done = true;

  const AccelConfig cfg = tiny_config();
  ReadModule read(state, cfg);
  MemModule mem(state, cfg);
  sim::Simulator sim;
  (void)sim.run_until([&] { return state.features_ready; }, 10'000, read,
                      mem);
  EXPECT_EQ(state.hops_done, 2U);

  const DatapathTables tables(prog, cfg);
  Datapath datapath(prog, cfg, tables);
  load_slot(datapath, {Fx::from_float(1.0F), Fx{}},
            {Fx{}, Fx::from_float(4.0F)});
  datapath.reg_k = {Fx::from_float(1.0F), Fx{}};
  datapath.read_hops();
  // One slot -> attention 1.0 -> r = (0,4); W_r = 0 -> h = r after
  // each hop (k2 = h1 = (0,4), same read again).
  EXPECT_NEAR(datapath.reg_h[0].to_float(), 0.0F, 1e-4F);
  EXPECT_NEAR(datapath.reg_h[1].to_float(), 4.0F, 1e-2F);
}

// ---- OUTPUT ------------------------------------------------------------------

/// OUTPUT's timing for one story of `values`: its answer in FIFO_OUT.
std::int32_t output_answer(const DeviceProgram& prog, const AccelConfig& cfg,
                           const StoryValues& values) {
  AcceleratorState state(prog);
  state.begin_story();
  state.features_ready = true;
  sim::Fifo<std::int32_t> out("OUT", 4);
  OutputModule module(state, cfg, out, std::span(&values, 1));
  sim::Simulator sim;
  (void)sim.run_until([&] { return !out.empty(); }, 10'000, module);
  EXPECT_FALSE(state.story_active);
  EXPECT_EQ(module.stats().ops.compare, values.output_probes);
  return *out.peek();
}

TEST(OutputModule, SequentialArgmaxWithoutIth) {
  const DeviceProgram prog = tiny_program();
  const AccelConfig cfg = tiny_config();
  const DatapathTables tables(prog, cfg);
  Datapath datapath(prog, cfg, tables);
  const FxVector h = {Fx{}, Fx::from_float(1.0F)};  // logits = 1,2,3,4
  const StoryValues values = datapath.search(h);

  EXPECT_EQ(values.prediction, 3);  // class with weight 4
  EXPECT_EQ(values.output_probes, 4U);
  EXPECT_FALSE(values.early_exit);
  EXPECT_EQ(output_answer(prog, cfg, values), 3);
}

TEST(OutputModule, IthStopsAtFirstThresholdCross) {
  DeviceProgram prog = tiny_program();
  // Probe order 2,3,0,1; thresholds: class 2 fires when z > 2.5.
  prog.probe_order = {2, 3, 0, 1};
  prog.thresholds = {Fx::max(), Fx::max(), Fx::from_float(2.5F), Fx::max()};
  AccelConfig cfg = tiny_config();
  cfg.ith_enabled = true;
  const DatapathTables tables(prog, cfg);
  Datapath datapath(prog, cfg, tables);
  const FxVector h = {Fx{}, Fx::from_float(1.0F)};  // logit of class 2 = 3
  const StoryValues values = datapath.search(h);

  EXPECT_EQ(values.prediction, 2);
  EXPECT_EQ(values.output_probes, 1U);
  EXPECT_TRUE(values.early_exit);
  EXPECT_EQ(output_answer(prog, cfg, values), 2);
}

TEST(OutputModule, IthFallsBackToArgmaxWhenNothingFires) {
  DeviceProgram prog = tiny_program();
  prog.probe_order = {0, 1, 2, 3};
  prog.thresholds.assign(4, Fx::max());
  AccelConfig cfg = tiny_config();
  cfg.ith_enabled = true;
  const DatapathTables tables(prog, cfg);
  Datapath datapath(prog, cfg, tables);
  const FxVector h = {Fx{}, Fx::from_float(1.0F)};
  const StoryValues values = datapath.search(h);

  EXPECT_EQ(values.prediction, 3);
  EXPECT_EQ(values.output_probes, 4U);
  EXPECT_FALSE(values.early_exit);
  EXPECT_EQ(output_answer(prog, cfg, values), 3);
}

// ---- CONTROL -----------------------------------------------------------------

TEST(ControlModule, CountsModelWordsThenRaisesLoaded) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  const std::size_t words = state.program.model_words();
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<StreamWord> cmds("CMD", 64);
  ControlModule control(state, in, cmds);
  for (std::size_t i = 0; i < words; ++i) {
    in.push({StreamOp::kModelWord, 0});
  }
  for (std::size_t i = 0; i < words; ++i) {
    EXPECT_FALSE(state.model_loaded);
    control.tick();
  }
  EXPECT_TRUE(state.model_loaded);
}

TEST(ControlModule, StoryBeforeModelLoadThrows) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<StreamWord> cmds("CMD", 8);
  ControlModule control(state, in, cmds);
  in.push({StreamOp::kStoryStart, 0});
  EXPECT_THROW(control.tick(), std::logic_error);
}

TEST(ControlModule, DataWordOutsideStoryThrows) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  state.model_loaded = true;
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<StreamWord> cmds("CMD", 8);
  ControlModule control(state, in, cmds);
  in.push({StreamOp::kContextWord, 1});
  EXPECT_THROW(control.tick(), std::logic_error);
}

TEST(ControlModule, StallsOnBusyDatapathAndFullCmdFifo) {
  const DeviceProgram prog = tiny_program();
  AcceleratorState state(prog);
  state.model_loaded = true;
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<StreamWord> cmds("CMD", 1);
  ControlModule control(state, in, cmds);

  in.push({StreamOp::kStoryStart, 0});
  control.tick();
  EXPECT_TRUE(state.story_active);

  // Fill the command FIFO; the next word must stall, not drop.
  in.push({StreamOp::kSentenceStart, 0});
  in.push({StreamOp::kContextWord, 1});
  control.tick();  // forwards sentence start
  control.tick();  // cmd fifo full -> stall
  EXPECT_EQ(in.size(), 1U);
  EXPECT_GT(control.stats().stall_cycles, 0U);

  // A second story while one is active stalls at the story boundary.
  (void)cmds.try_pop();
  control.tick();  // forwards the context word
  in.push({StreamOp::kStoryStart, 0});
  control.tick();
  EXPECT_EQ(in.size(), 1U);  // story start not consumed
}

// ---- HOST LINK ----------------------------------------------------------------

TEST(HostLinkModule, RespectsWordRate) {
  AccelConfig cfg = tiny_config();
  cfg.clock_hz = 1.0e6;
  cfg.link.words_per_second = 0.25e6;  // 1 word per 4 cycles
  cfg.link.model_words_per_second = 0.25e6;
  cfg.link.per_story_latency = 0.0;
  cfg.link.result_latency = 0.0;
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<std::int32_t> out("OUT", 4);
  HostLinkModule link(cfg, 16, {}, in, out);
  for (int i = 0; i < 32; ++i) {
    link.tick();
  }
  // 32 cycles at 0.25 words/cycle -> 8 words.
  EXPECT_EQ(in.size(), 8U);
  EXPECT_FALSE(link.all_words_sent());
}

TEST(HostLinkModule, PushesAtItsExactRate) {
  // An asynchronous, latency-free stream into a FIFO that never fills
  // pushes its k-th word on tick ceil(k * clock_hz / words_per_second).
  // At 50 MHz the default 4 Mwords/s is 0.08 words a cycle, which a
  // credit summed in binary fractions reaches one tick late on every
  // other word. At 3 Hz a credit one unit off shows.
  constexpr std::uint64_t kTwoTo53 = std::uint64_t{1} << 53;
  struct Rate {
    std::uint64_t clock_hz;
    std::uint64_t words_per_second;
  };
  constexpr Rate kRates[] = {
      {25'000'000, 4'000'000},  {50'000'000, 4'000'000},
      {75'000'000, 4'000'000},  {100'000'000, 4'000'000},
      {3, 1},                   // exactly 1/3 word a cycle
      {100'000'000, kTwoTo53},  // every word on the first tick
      {kTwoTo53, kTwoTo53 - 1},  // one word a tick, one tick late
  };
  constexpr std::size_t kWords = 64;
  std::vector<StreamWord> words(kWords, {StreamOp::kContextWord, 1});
  words.front() = {StreamOp::kStoryStart, 0};
  words.back() = {StreamOp::kEndOfStory, 0};
  for (const Rate& r : kRates) {
    SCOPED_TRACE(std::to_string(r.clock_hz) + " Hz, " +
                 std::to_string(r.words_per_second) + " words/s");
    AccelConfig cfg = tiny_config();
    cfg.clock_hz = static_cast<double>(r.clock_hz);
    cfg.link.words_per_second = static_cast<double>(r.words_per_second);
    cfg.link.per_story_latency = 0.0;
    cfg.link.result_latency = 0.0;
    cfg.link.synchronous_stories = false;
    sim::Fifo<StreamWord> in("IN", kWords);
    sim::Fifo<std::int32_t> out("OUT", 4);
    HostLinkModule link(cfg, 0, words, in, out);
    std::vector<sim::Cycle> pushed_on;  // pushed_on[k - 1]: word k's tick
    for (sim::Cycle now = 0; !link.all_words_sent() && now < 10'000;) {
      link.tick();
      ++now;  // tick number `now` has run
      pushed_on.resize(in.size(), now);
    }
    ASSERT_EQ(pushed_on.size(), kWords);
    for (std::uint64_t k = 1; k <= kWords; ++k) {
      // 128 bits: k * clock_hz passes 2^64 at the 2^53 Hz clock.
      const auto due = static_cast<sim::Cycle>(
          (static_cast<unsigned __int128>(k) * r.clock_hz +
           r.words_per_second - 1) /
          r.words_per_second);
      EXPECT_EQ(pushed_on[k - 1], due) << "word " << k;
    }
  }
}

TEST(HostLinkModule, ModelPhaseUsesBulkRate) {
  AccelConfig cfg = tiny_config();
  cfg.clock_hz = 1.0e6;
  cfg.link.words_per_second = 0.25e6;
  cfg.link.model_words_per_second = 1.0e6;  // 1 word/cycle for the model
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<std::int32_t> out("OUT", 4);
  HostLinkModule link(cfg, 10, {}, in, out);
  for (int i = 0; i < 10; ++i) {
    link.tick();
  }
  EXPECT_TRUE(link.all_words_sent());
}

TEST(HostLinkModule, StreamsModelWordsBeforeTheStories) {
  // The upload is a count of identical words, sent ahead of the story
  // words and counted in words_total().
  AccelConfig cfg = tiny_config();
  cfg.clock_hz = 1.0e6;
  cfg.link.words_per_second = 1.0e6;
  cfg.link.model_words_per_second = 1.0e6;
  cfg.link.per_story_latency = 0.0;
  cfg.link.synchronous_stories = false;
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<std::int32_t> out("OUT", 4);
  const std::vector<StreamWord> story = {{StreamOp::kStoryStart, 0},
                                         {StreamOp::kContextWord, 3},
                                         {StreamOp::kEndOfStory, 0}};
  HostLinkModule link(cfg, 7, story, in, out);
  EXPECT_EQ(link.words_total(), 10U);
  for (int i = 0; i < 10; ++i) {
    link.tick();
  }
  EXPECT_TRUE(link.all_words_sent());
  ASSERT_EQ(in.size(), 10U);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(in.try_pop().value().op, StreamOp::kModelWord);
  }
  for (const StreamWord& word : story) {
    EXPECT_EQ(in.try_pop().value(), word);
  }
}

TEST(HostLinkModule, ChargesPerStoryLatencyOnce) {
  AccelConfig cfg = tiny_config();
  cfg.clock_hz = 1.0e6;
  cfg.link.words_per_second = 1.0e6;
  cfg.link.per_story_latency = 5.0e-6;  // 5 cycles at 1 MHz
  cfg.link.result_latency = 0.0;
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<std::int32_t> out("OUT", 4);
  std::vector<StreamWord> words = {{StreamOp::kStoryStart, 0},
                                   {StreamOp::kSentenceStart, 0},
                                   {StreamOp::kContextWord, 1}};
  HostLinkModule link(cfg, 0, words, in, out);
  int cycles = 0;
  while (!link.all_words_sent() && cycles < 100) {
    link.tick();
    ++cycles;
  }
  // 5 latency cycles + 3 word cycles (+1 for the stalled first attempt).
  EXPECT_GE(cycles, 8);
  EXPECT_LE(cycles, 10);
}

TEST(HostLinkModule, SynchronousModeWaitsForAnswer) {
  AccelConfig cfg = tiny_config();
  cfg.clock_hz = 1.0e6;
  cfg.link.words_per_second = 1.0e6;
  cfg.link.per_story_latency = 0.0;
  cfg.link.result_latency = 0.0;
  cfg.link.synchronous_stories = true;
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<std::int32_t> out("OUT", 4);
  std::vector<StreamWord> words = {{StreamOp::kStoryStart, 0},
                                   {StreamOp::kEndOfStory, 0},
                                   {StreamOp::kStoryStart, 0},
                                   {StreamOp::kEndOfStory, 0}};
  HostLinkModule link(cfg, 0, words, in, out);
  for (int i = 0; i < 20; ++i) {
    link.tick();
  }
  // First story sent, second held back until an answer arrives.
  EXPECT_EQ(in.size(), 2U);
  out.push(1);
  for (int i = 0; i < 20; ++i) {
    link.tick();
  }
  EXPECT_TRUE(link.all_words_sent());
  ASSERT_EQ(link.answers().size(), 1U);
  EXPECT_EQ(link.answers()[0].prediction, 1);
}

TEST(HostLinkModule, AsynchronousModeStreamsAhead) {
  AccelConfig cfg = tiny_config();
  cfg.clock_hz = 1.0e6;
  cfg.link.words_per_second = 1.0e6;
  cfg.link.per_story_latency = 0.0;
  cfg.link.synchronous_stories = false;
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<std::int32_t> out("OUT", 4);
  std::vector<StreamWord> words = {{StreamOp::kStoryStart, 0},
                                   {StreamOp::kEndOfStory, 0},
                                   {StreamOp::kStoryStart, 0},
                                   {StreamOp::kEndOfStory, 0}};
  HostLinkModule link(cfg, 0, words, in, out);
  for (int i = 0; i < 20; ++i) {
    link.tick();
  }
  EXPECT_TRUE(link.all_words_sent());  // no gating on answers
}

}  // namespace
}  // namespace mann::accel
