// Module-level tests of the accelerator: each of Fig. 1's blocks driven
// in isolation against hand-built device state, plus host-link behaviour
// that the end-to-end tests cannot pin down (rates, latency charging,
// synchronous gating).
#include <gtest/gtest.h>

#include <cmath>

#include "accel/control.hpp"
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

// ---- INPUT & WRITE ---------------------------------------------------------

TEST(InputWriteModule, AccumulatesAndFlushesSentences) {
  AcceleratorState state(tiny_program());
  state.begin_story();
  const AccelConfig cfg = tiny_config();
  sim::Fifo<InputCmd> cmds("CMD", 16);
  InputWriteModule module(state, cfg, cmds);

  cmds.push({InputCmdKind::kSentenceStart, 0});
  cmds.push({InputCmdKind::kContextWord, 1});  // a=(2,0), c=(0,2)
  cmds.push({InputCmdKind::kContextWord, 2});  // a+=(3,0), c+=(0,3)
  cmds.push({InputCmdKind::kQuestionStart, 0});
  cmds.push({InputCmdKind::kQuestionWord, 0});  // q=(1,0.5)
  cmds.push({InputCmdKind::kEndOfStory, 0});

  for (int i = 0; i < 40 && !state.input_done; ++i) {
    module.tick();
  }
  ASSERT_TRUE(state.input_done);
  ASSERT_EQ(state.mem_a.size(), 1U);
  EXPECT_FLOAT_EQ(state.mem_a[0][0].to_float(), 5.0F);
  EXPECT_FLOAT_EQ(state.mem_a[0][1].to_float(), 0.0F);
  EXPECT_FLOAT_EQ(state.mem_c[0][1].to_float(), 5.0F);
  EXPECT_FLOAT_EQ(state.reg_k[0].to_float(), 1.0F);
  EXPECT_FLOAT_EQ(state.reg_k[1].to_float(), 0.5F);
}

TEST(InputWriteModule, DropsOldestSlotWhenMemoryFull) {
  DeviceProgram prog = tiny_program();
  prog.max_memory = 2;
  AcceleratorState state(std::move(prog));
  state.begin_story();
  const AccelConfig cfg = tiny_config();
  sim::Fifo<InputCmd> cmds("CMD", 32);
  InputWriteModule module(state, cfg, cmds);

  for (const std::int32_t w : {0, 1, 2}) {  // three 1-word sentences
    cmds.push({InputCmdKind::kSentenceStart, 0});
    cmds.push({InputCmdKind::kContextWord, w});
  }
  cmds.push({InputCmdKind::kQuestionStart, 0});
  cmds.push({InputCmdKind::kEndOfStory, 0});
  for (int i = 0; i < 60 && !state.input_done; ++i) {
    module.tick();
  }
  ASSERT_TRUE(state.input_done);
  ASSERT_EQ(state.mem_a.size(), 2U);
  // Slots hold words 1 and 2 (word 0's sentence was evicted).
  EXPECT_FLOAT_EQ(state.mem_a[0][0].to_float(), 2.0F);
  EXPECT_FLOAT_EQ(state.mem_a[1][0].to_float(), 3.0F);
}

// ---- MEM -------------------------------------------------------------------

TEST(MemModule, ComputesSoftmaxAttentionAndWeightedRead) {
  AcceleratorState state(tiny_program());
  state.begin_story();
  // Two memory slots with known contents.
  state.mem_a = {{Fx::from_float(1.0F), Fx::from_float(0.0F)},
                 {Fx::from_float(3.0F), Fx::from_float(0.0F)}};
  state.mem_c = {{Fx::from_float(0.0F), Fx::from_float(1.0F)},
                 {Fx::from_float(0.0F), Fx::from_float(2.0F)}};
  state.reg_k = {Fx::from_float(1.0F), Fx::from_float(0.0F)};
  state.mem_request = true;

  MemModule module(state, tiny_config());
  for (int i = 0; i < 200 && !state.mem_done; ++i) {
    module.tick();
  }
  ASSERT_TRUE(state.mem_done);
  // Scores are 1 and 3 -> softmax = (0.119, 0.881).
  ASSERT_EQ(state.attention.size(), 2U);
  EXPECT_NEAR(state.attention[0].to_float(), 0.1192F, 5e-3F);
  EXPECT_NEAR(state.attention[1].to_float(), 0.8808F, 5e-3F);
  // r = a0*(0,1) + a1*(0,2).
  EXPECT_NEAR(state.reg_r[1].to_float(), 0.1192F + 2.0F * 0.8808F, 1e-2F);
  EXPECT_NEAR(state.reg_r[0].to_float(), 0.0F, 1e-4F);
  EXPECT_FALSE(state.mem_request);
  // Op accounting: 2 slots x 2 dims dots twice (address + read).
  EXPECT_EQ(module.stats().ops.mac, 8U);
  EXPECT_EQ(module.stats().ops.exp, 2U);
  EXPECT_EQ(module.stats().ops.div, 2U);
}

TEST(MemModule, EmptyMemoryIsAProtocolBug) {
  AcceleratorState state(tiny_program());
  state.begin_story();
  state.reg_k = {Fx::from_float(1.0F), Fx{}};
  state.mem_request = true;
  MemModule module(state, tiny_config());
  EXPECT_THROW(module.tick(), std::logic_error);
}

// ---- READ + MEM recurrence ---------------------------------------------------

TEST(ReadModule, RunsHopsAndRaisesFeaturesReady) {
  DeviceProgram prog = tiny_program();
  prog.hops = 2;
  AcceleratorState state(std::move(prog));
  state.begin_story();
  state.mem_a = {{Fx::from_float(1.0F), Fx{}}};
  state.mem_c = {{Fx{}, Fx::from_float(4.0F)}};
  state.reg_k = {Fx::from_float(1.0F), Fx{}};
  state.input_done = true;

  const AccelConfig cfg = tiny_config();
  ReadModule read(state, cfg);
  MemModule mem(state, cfg);
  sim::Simulator sim;
  sim.add_module(read);
  sim.add_module(mem);
  (void)sim.run_until([&] { return state.features_ready; }, 10'000);

  // One slot -> attention 1.0 -> r = (0,4); W_r = 0 -> h = r after
  // each hop (k2 = h1 = (0,4), same read again).
  EXPECT_EQ(state.hops_done, 2U);
  EXPECT_NEAR(state.reg_h[0].to_float(), 0.0F, 1e-4F);
  EXPECT_NEAR(state.reg_h[1].to_float(), 4.0F, 1e-2F);
  EXPECT_FALSE(state.read_busy);
}

// ---- OUTPUT ------------------------------------------------------------------

TEST(OutputModule, SequentialArgmaxWithoutIth) {
  AcceleratorState state(tiny_program());
  state.begin_story();
  state.reg_h = {Fx{}, Fx::from_float(1.0F)};  // logits = 1,2,3,4
  state.features_ready = true;

  const AccelConfig cfg = tiny_config();
  sim::Fifo<std::int32_t> out("OUT", 4);
  OutputModule module(state, cfg, out);
  sim::Simulator sim;
  sim.add_module(module);
  (void)sim.run_until([&] { return !out.empty(); }, 10'000);

  EXPECT_EQ(*out.peek(), 3);  // class with weight 4
  ASSERT_EQ(module.records().size(), 1U);
  EXPECT_EQ(module.records()[0].probes, 4U);
  EXPECT_FALSE(module.records()[0].early_exit);
  EXPECT_FALSE(state.story_active);
}

TEST(OutputModule, IthStopsAtFirstThresholdCross) {
  DeviceProgram prog = tiny_program();
  // Probe order 2,3,0,1; thresholds: class 2 fires when z > 2.5.
  prog.probe_order = {2, 3, 0, 1};
  prog.thresholds = {Fx::max(), Fx::max(), Fx::from_float(2.5F), Fx::max()};
  AcceleratorState state(std::move(prog));
  state.begin_story();
  state.reg_h = {Fx{}, Fx::from_float(1.0F)};  // logit of class 2 = 3
  state.features_ready = true;

  AccelConfig cfg = tiny_config();
  cfg.ith_enabled = true;
  sim::Fifo<std::int32_t> out("OUT", 4);
  OutputModule module(state, cfg, out);
  sim::Simulator sim;
  sim.add_module(module);
  (void)sim.run_until([&] { return !out.empty(); }, 10'000);

  EXPECT_EQ(*out.peek(), 2);
  EXPECT_EQ(module.records()[0].probes, 1U);
  EXPECT_TRUE(module.records()[0].early_exit);
}

TEST(OutputModule, IthFallsBackToArgmaxWhenNothingFires) {
  DeviceProgram prog = tiny_program();
  prog.probe_order = {0, 1, 2, 3};
  prog.thresholds.assign(4, Fx::max());
  AcceleratorState state(std::move(prog));
  state.begin_story();
  state.reg_h = {Fx{}, Fx::from_float(1.0F)};
  state.features_ready = true;

  AccelConfig cfg = tiny_config();
  cfg.ith_enabled = true;
  sim::Fifo<std::int32_t> out("OUT", 4);
  OutputModule module(state, cfg, out);
  sim::Simulator sim;
  sim.add_module(module);
  (void)sim.run_until([&] { return !out.empty(); }, 10'000);
  EXPECT_EQ(*out.peek(), 3);
  EXPECT_EQ(module.records()[0].probes, 4U);
  EXPECT_FALSE(module.records()[0].early_exit);
}

// ---- CONTROL -----------------------------------------------------------------

TEST(ControlModule, CountsModelWordsThenRaisesLoaded) {
  AcceleratorState state(tiny_program());
  const std::size_t words = state.program.model_words();
  sim::Fifo<StreamWord> in("IN", 64);
  sim::Fifo<InputCmd> cmds("CMD", 64);
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
  AcceleratorState state(tiny_program());
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<InputCmd> cmds("CMD", 8);
  ControlModule control(state, in, cmds);
  in.push({StreamOp::kStoryStart, 0});
  EXPECT_THROW(control.tick(), std::logic_error);
}

TEST(ControlModule, DataWordOutsideStoryThrows) {
  AcceleratorState state(tiny_program());
  state.model_loaded = true;
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<InputCmd> cmds("CMD", 8);
  ControlModule control(state, in, cmds);
  in.push({StreamOp::kContextWord, 1});
  EXPECT_THROW(control.tick(), std::logic_error);
}

TEST(ControlModule, StallsOnBusyDatapathAndFullCmdFifo) {
  AcceleratorState state(tiny_program());
  state.model_loaded = true;
  sim::Fifo<StreamWord> in("IN", 8);
  sim::Fifo<InputCmd> cmds("CMD", 1);
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
