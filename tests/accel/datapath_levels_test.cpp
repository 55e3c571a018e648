// The value pass at every x86-64 level this host runs, held to the
// baseline's bits: seeded programs whose words keep fx_dot in its wide
// sum, push some of its dots into the sequential fallback or saturate
// every product, with ITH on and off, dense and sparse reads, and stories
// longer than the banks. The suite-scale twin is
// tests/integration/datapath_levels_test.cpp. Also here: one datapath
// over many stories against a fresh one per story, and the tables a
// datapath refuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/datapath.hpp"

namespace mann::accel {
namespace {

/// A program of `v` classes and `e`-wide words, every weight uniform in
/// [-word_max, word_max] (raw), with a random probe order and thresholds
/// that never fire, always fire or sit anywhere in the word range.
DeviceProgram seeded_program(std::mt19937_64& rng, std::size_t v,
                             std::size_t e, std::size_t hops,
                             std::size_t max_memory, std::int64_t word_max) {
  std::uniform_int_distribution<std::int64_t> word(-word_max, word_max);
  const auto fill = [&](std::size_t rows, std::size_t cols) {
    FxMatrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (Fx& x : m.row(r)) {
        x = Fx::from_raw(static_cast<std::int32_t>(word(rng)));
      }
    }
    return m;
  };
  DeviceProgram p;
  p.vocab_size = v;
  p.embedding_dim = e;
  p.hops = hops;
  p.max_memory = max_memory;
  p.emb_a = fill(v, e);
  p.emb_c = fill(v, e);
  p.emb_q = fill(v, e);
  p.w_r = fill(e, e);
  p.w_o = fill(v, e);
  p.probe_order.resize(v);
  std::iota(p.probe_order.begin(), p.probe_order.end(), 0);
  std::shuffle(p.probe_order.begin(), p.probe_order.end(), rng);
  std::uniform_int_distribution<int> kind(0, 3);
  for (std::size_t c = 0; c < v; ++c) {
    const int k = kind(rng);
    p.thresholds.push_back(k == 0   ? Fx::max()
                           : k == 1 ? Fx::min()
                                    : Fx::from_raw(static_cast<std::int32_t>(
                                          word(rng))));
  }
  return p;
}

/// Stories of up to 3 x max_memory sentences (some empty, the first
/// not), so the banks drop their oldest slots.
std::vector<data::EncodedStory> seeded_stories(std::mt19937_64& rng,
                                               const DeviceProgram& program,
                                               std::size_t count) {
  std::uniform_int_distribution<std::int32_t> word(
      0, static_cast<std::int32_t>(program.vocab_size) - 1);
  std::uniform_int_distribution<std::size_t> sentences(
      1, 3 * program.max_memory);
  std::uniform_int_distribution<std::size_t> length(0, 6);
  std::vector<data::EncodedStory> stories(count);
  for (data::EncodedStory& story : stories) {
    story.context.resize(sentences(rng));
    for (std::size_t s = 0; s < story.context.size(); ++s) {
      story.context[s].resize(s == 0 ? 1 + length(rng) : length(rng));
      for (std::int32_t& w : story.context[s]) {
        w = word(rng);
      }
    }
    story.question.resize(1 + length(rng));
    for (std::int32_t& w : story.question) {
      w = word(rng);
    }
  }
  return stories;
}

/// Working-range words, words whose dots sometimes pass 2^31 - 1 in
/// magnitude (fx_dot's fallback), and full-range words.
constexpr std::int64_t kWordMaxes[] = {std::int64_t{1} << 16,
                                       std::int64_t{1} << 22, Fx::kRawMax};

/// Whether two datapaths hold the same occupied bank rows and registers.
bool same_registers(const Datapath& a, const Datapath& b) {
  if (a.slots != b.slots || a.reg_k != b.reg_k || a.reg_r != b.reg_r ||
      a.reg_h != b.reg_h || a.attention != b.attention) {
    return false;
  }
  for (std::size_t r = 0; r < a.slots; ++r) {
    if (!std::ranges::equal(a.mem_a.row(r), b.mem_a.row(r)) ||
        !std::ranges::equal(a.mem_c.row(r), b.mem_c.row(r))) {
      return false;
    }
  }
  return true;
}

std::string level_names() {
  std::string names;
  for (const VectorLevel level : host_vector_levels()) {
    names += names.empty() ? "" : " ";
    names += vector_level_name(level);
  }
  return names;
}

class DatapathLevels : public ::testing::TestWithParam<VectorLevel> {};

TEST_P(DatapathLevels, RunLikeTheBaseline) {
  std::printf("value pass levels on this host: %s; checking %s\n",
              level_names().c_str(), vector_level_name(GetParam()));
  struct Shape {
    std::size_t v, e, hops, max_memory;
  };
  // e = 5 and 40 leave vector remainders at every width.
  const Shape shapes[] = {{20, 24, 3, 8}, {7, 5, 2, 3}, {33, 40, 1, 4},
                          {16, 64, 3, 16}};
  std::mt19937_64 rng(0x5EEDD47A);
  std::size_t mismatches = 0;
  std::size_t stories_run = 0;
  for (const Shape& shape : shapes) {
    for (const std::int64_t word_max : kWordMaxes) {
      const DeviceProgram program = seeded_program(
          rng, shape.v, shape.e, shape.hops, shape.max_memory, word_max);
      const std::vector<data::EncodedStory> stories =
          seeded_stories(rng, program, 40);
      for (const bool ith : {false, true}) {
        for (const std::size_t sparse : {0U, 2U}) {
          AccelConfig config;
          config.ith_enabled = ith;
          config.sparse_read_slots = sparse;
          const DatapathTables tables(program, config);
          Datapath baseline(program, config, tables, VectorLevel::kBaseline);
          Datapath wide(program, config, tables, GetParam());
          for (std::size_t i = 0; i < stories.size(); ++i) {
            const StoryValues want = baseline.run(stories[i]);
            const StoryValues got = wide.run(stories[i]);
            ++stories_run;
            const bool same = got == want && same_registers(wide, baseline);
            if (!same && ++mismatches <= 5) {
              ADD_FAILURE()
                  << vector_level_name(GetParam()) << ": V=" << shape.v
                  << " E=" << shape.e << " words to " << word_max
                  << ", ITH " << ith << ", sparse " << sparse << ", story "
                  << i << ": prediction " << got.prediction << " vs "
                  << want.prediction << ", early exit " << got.early_exit
                  << " vs " << want.early_exit << ", probes "
                  << got.output_probes << " vs " << want.output_probes;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0U) << "of " << stories_run << " stories";
}

INSTANTIATE_TEST_SUITE_P(
    Host, DatapathLevels, ::testing::ValuesIn(host_vector_levels()),
    [](const ::testing::TestParamInfo<VectorLevel>& info) {
      std::string name = vector_level_name(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(DatapathReuse, OneDatapathRunsEachStoryLikeAFreshOne) {
  // Host/DatapathLevels.* compares two long-lived datapaths, so state that
  // one story leaves for the next (a bank row, a register, a work buffer)
  // would leak into both alike. Here one datapath runs 48 stories and is
  // held, story by story, to a datapath built for that story alone, at
  // every level this host runs: ITH on (whose thresholds exit early on
  // some stories and never on others) and off, dense and sparse reads,
  // the three word ranges.
  std::mt19937_64 rng(0x0DA7A11FE);
  std::size_t mismatches = 0;
  std::size_t stories_run = 0;
  for (const std::int64_t word_max : kWordMaxes) {
    const DeviceProgram program = seeded_program(rng, 20, 24, 3, 8, word_max);
    const std::vector<data::EncodedStory> stories =
        seeded_stories(rng, program, 48);
    for (const bool ith : {false, true}) {
      for (const std::size_t sparse : {0U, 2U}) {
        AccelConfig config;
        config.ith_enabled = ith;
        config.sparse_read_slots = sparse;
        const DatapathTables tables(program, config);
        for (const VectorLevel level : host_vector_levels()) {
          Datapath reused(program, config, tables, level);
          for (std::size_t i = 0; i < stories.size(); ++i) {
            Datapath fresh(program, config, tables, level);
            const StoryValues want = fresh.run(stories[i]);
            const StoryValues got = reused.run(stories[i]);
            ++stories_run;
            if ((got != want || !same_registers(reused, fresh)) &&
                ++mismatches <= 5) {
              ADD_FAILURE() << vector_level_name(level) << ": words to "
                            << word_max << ", ITH " << ith << ", sparse "
                            << sparse << ", story " << i << ": prediction "
                            << got.prediction << " vs " << want.prediction
                            << ", probes " << got.output_probes << " vs "
                            << want.output_probes;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0U) << "of " << stories_run << " stories";
}

/// A seeded program of `v` classes and `e`-wide words.
DeviceProgram program_of(std::size_t v, std::size_t e) {
  std::mt19937_64 rng(v * 100 + e);
  return seeded_program(rng, v, e, 1, 2, std::int64_t{1} << 16);
}

TEST(DatapathRefusesTables, BuiltForAnotherVocabularySize) {
  const DeviceProgram program = program_of(7, 5);
  const DatapathTables tables(program_of(8, 5), AccelConfig{});
  EXPECT_THROW(Datapath(program, AccelConfig{}, tables),
               std::invalid_argument);
}

TEST(DatapathRefusesTables, BuiltForAnotherWidth) {
  const DeviceProgram program = program_of(7, 5);
  const DatapathTables tables(program_of(7, 6), AccelConfig{});
  EXPECT_THROW(Datapath(program, AccelConfig{}, tables),
               std::invalid_argument);
}

TEST(DatapathRefusesTables, BuiltForAnotherIthSetting) {
  const DeviceProgram program = program_of(7, 5);
  AccelConfig ith;
  ith.ith_enabled = true;
  const DatapathTables plain_tables(program, AccelConfig{});
  const DatapathTables ith_tables(program, ith);
  EXPECT_THROW(Datapath(program, ith, plain_tables), std::invalid_argument);
  EXPECT_THROW(Datapath(program, AccelConfig{}, ith_tables),
               std::invalid_argument);
  EXPECT_NO_THROW(Datapath(program, ith, ith_tables));
}

TEST(DatapathRefusesTables, ForAProgramTheyWouldReadPast) {
  // The tables validate the program before building anything: a 0x0 W_r
  // would send the sweep past W_r's end, and a W_o short of a row the
  // output bounds past W_o's.
  DeviceProgram no_w_r = program_of(7, 5);
  no_w_r.w_r = FxMatrix(0, 0);
  DeviceProgram short_w_o = program_of(7, 5);
  short_w_o.w_o = FxMatrix(6, 5);
  for (const DeviceProgram* program : {&no_w_r, &short_w_o}) {
    EXPECT_THROW(DatapathTables(*program, AccelConfig{}),
                 std::invalid_argument);
    EXPECT_THROW(Accelerator(AccelConfig{}, *program), std::invalid_argument);
  }
}

TEST(VectorLevels, ADatapathRunsOnlyTheHostsLevels) {
  const std::span<const VectorLevel> levels = host_vector_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), VectorLevel::kBaseline);
  DeviceProgram program;
  program.vocab_size = 1;
  program.embedding_dim = 1;
  program.hops = 1;
  program.max_memory = 1;
  program.emb_a = FxMatrix(1, 1);
  program.emb_c = FxMatrix(1, 1);
  program.emb_q = FxMatrix(1, 1);
  program.w_r = FxMatrix(1, 1);
  program.w_o = FxMatrix(1, 1);
  const DatapathTables tables(program, AccelConfig{});
  for (const VectorLevel level :
       {VectorLevel::kBaseline, VectorLevel::kX86_64_V3,
        VectorLevel::kX86_64_V4}) {
    if (std::ranges::find(levels, level) != levels.end()) {
      EXPECT_NO_THROW(Datapath(program, AccelConfig{}, tables, level));
    } else {
      EXPECT_THROW(Datapath(program, AccelConfig{}, tables, level),
                   std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace mann::accel
