// Micro-benchmarks of the numeric kernels on the hot paths: the float
// reference model, the fixed-point datapath, the ITH calibration
// statistics and one whole device simulation. google-benchmark timings,
// independent of the trained suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/compiler.hpp"
#include "accel/datapath.hpp"
#include "accel/fx_types.hpp"
#include "data/dataset.hpp"
#include "model/memn2n.hpp"
#include "numeric/kde.hpp"
#include "numeric/lut.hpp"
#include "numeric/random.hpp"
#include "numeric/silhouette.hpp"
#include "numeric/vector_ops.hpp"

namespace {

using namespace mann;

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  numeric::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.uniform(-1.0F, 1.0F);
  }
  return v;
}

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(n, 1);
  const auto b = random_vector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Dot)->Arg(24)->Arg(256);

/// One 24-element fx_dot per iteration, at the baseline (BM_ValuePass
/// times the kernels at each level the value pass is compiled for),
/// streamed as OUTPUT probes: over the rows of a 155x24 matrix (the shape
/// of W_o), with the next of 64 registers (one per story) after each
/// pass. The products' signs repeat only every 64 passes, so the branch
/// predictor cannot learn them as it does a repeated pair. Words lie in
/// [-1, 1]; with `saturating:1` in [-256, 256], so products saturate and
/// the sequential fallback is timed.
void BM_FxDot(benchmark::State& state) {
  constexpr std::size_t kRows = 155;
  constexpr std::size_t kCols = 24;
  constexpr std::size_t kStories = 64;
  const float scale = state.range(0) == 0 ? 1.0F : 256.0F;
  numeric::Rng rng(3);
  accel::FxMatrix w(kRows, kCols);
  accel::FxMatrix h(kStories, kCols);
  for (accel::FxMatrix* m : {&w, &h}) {
    for (std::size_t r = 0; r < m->rows(); ++r) {
      for (std::size_t c = 0; c < kCols; ++c) {
        (*m)(r, c) = accel::Fx::from_float(rng.uniform(-scale, scale));
      }
    }
  }
  std::size_t row = 0;
  std::size_t story = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::fx_dot(w.row(row), h.row(story)));
    if (++row == kRows) {
      row = 0;
      story = story + 1 == kStories ? 0 : story + 1;
    }
  }
}
BENCHMARK(BM_FxDot)->ArgName("saturating")->Arg(0)->Arg(1);

void BM_Softmax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = random_vector(n, 5);
  std::vector<float> v(n);
  for (auto _ : state) {
    v = base;
    numeric::softmax_inplace(v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(16)->Arg(160);

void BM_ExpLut(benchmark::State& state) {
  const numeric::ExpLut lut;
  float x = -8.0F;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut(x));
    x = x < -0.1F ? x + 0.01F : -8.0F;
  }
}
BENCHMARK(BM_ExpLut);

void BM_Matvec(benchmark::State& state) {
  numeric::Rng rng(6);
  numeric::Matrix m(static_cast<std::size_t>(state.range(0)), 24);
  for (float& v : m.data()) {
    v = rng.normal();
  }
  const auto x = random_vector(24, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::matvec(m, x));
  }
}
BENCHMARK(BM_Matvec)->Arg(24)->Arg(160);

void BM_KdeEvaluate(benchmark::State& state) {
  const auto samples = random_vector(static_cast<std::size_t>(state.range(0)),
                                     8);
  const numeric::KernelDensity kde(samples);
  float x = -1.0F;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde(x));
    x = x < 1.0F ? x + 0.01F : -1.0F;
  }
}
BENCHMARK(BM_KdeEvaluate)->Arg(128)->Arg(1024);

void BM_Silhouette(benchmark::State& state) {
  const auto own = random_vector(static_cast<std::size_t>(state.range(0)), 9);
  auto other = random_vector(static_cast<std::size_t>(state.range(0)) * 4,
                             10);
  for (float& v : other) {
    v += 2.0F;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::average_silhouette(own, other));
  }
}
BENCHMARK(BM_Silhouette)->Arg(64)->Arg(512);

void BM_ModelForward(benchmark::State& state) {
  data::DatasetConfig dc;
  dc.train_stories = 1;
  dc.test_stories = 8;
  const auto ds =
      data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
  model::ModelConfig mc;
  mc.vocab_size = ds.vocab_size();
  mc.embedding_dim = 24;
  mc.hops = 3;
  numeric::Rng rng(11);
  const model::MemN2N net(mc, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(ds.test[i % ds.test.size()]));
    ++i;
  }
}
BENCHMARK(BM_ModelForward);

/// The qa1 test stories and randomly initialised model that
/// BM_AcceleratorRun and BM_ValuePass run (at least 50 stories are
/// generated; stories() is the first `count`).
struct Qa1Workload {
  data::TaskDataset dataset;
  accel::DeviceProgram program;
  std::size_t count = 0;

  [[nodiscard]] std::span<const data::EncodedStory> stories() const {
    return {dataset.test.data(), count};
  }
};

Qa1Workload qa1_workload(std::size_t count) {
  data::DatasetConfig dc;
  dc.train_stories = 1;
  dc.test_stories = std::max<std::size_t>(50, count);
  Qa1Workload workload;
  workload.dataset =
      data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
  workload.count = count;
  model::ModelConfig mc;
  mc.vocab_size = workload.dataset.vocab_size();
  mc.embedding_dim = 24;
  mc.hops = 3;
  numeric::Rng rng(11);
  workload.program = accel::compile_model(model::MemN2N(mc, rng));
  return workload;
}

// One Accelerator::run over qa1 test stories, on a randomly initialised
// model: the uncached device-simulation path. Items are simulated cycles,
// so items_per_second is simulated cycles per host second (1e9 / it = host
// ns per simulated cycle). Args: fabric clock in MHz, stories per run, and
// whether the model is already resident (1) or uploaded first (0, the
// cold run). With one story, cold minus resident time is the host cost of
// one model upload. 200 resident stories at 100 MHz is serving's
// link-bound shape, where time per iteration / 200 is the host time per
// story. 8 resident stories is the shape of one serving dispatch, where a
// run's fixed costs show.
void BM_AcceleratorRun(benchmark::State& state) {
  const Qa1Workload workload =
      qa1_workload(static_cast<std::size_t>(state.range(1)));
  accel::AccelConfig config;
  config.clock_hz = static_cast<double>(state.range(0)) * 1.0e6;
  const accel::Accelerator device(config, workload.program);
  accel::RunOptions options;
  options.model_resident = state.range(2) != 0;
  std::int64_t cycles = 0;
  for (auto _ : state) {
    const accel::RunResult result = device.run(workload.stories(), options);
    cycles += static_cast<std::int64_t>(result.total_cycles);
    benchmark::DoNotOptimize(result.stories.data());
  }
  state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_AcceleratorRun)
    ->ArgNames({"mhz", "stories", "resident"})
    ->Args({25, 50, 0})
    ->Args({100, 50, 0})
    ->Args({100, 1, 0})
    ->Args({100, 1, 1})
    ->Args({100, 8, 1})
    ->Args({100, 200, 1});

// The value pass alone (accel::Datapath::run) over BM_AcceleratorRun's
// 200 stories, once per level this host runs (the name's suffix): the
// same source at the baseline's, AVX2's and AVX-512's vector width.
// items_per_second is stories per host second.
void BM_ValuePass(benchmark::State& state, accel::VectorLevel level) {
  const Qa1Workload workload = qa1_workload(200);
  const accel::DatapathTables tables(workload.program, accel::AccelConfig{});
  accel::Datapath datapath(workload.program, accel::AccelConfig{}, tables,
                           level);
  for (auto _ : state) {
    for (const data::EncodedStory& story : workload.stories()) {
      benchmark::DoNotOptimize(datapath.run(story));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.count));
}

[[maybe_unused]] const bool kValuePassRegistered = [] {
  for (const accel::VectorLevel level : accel::host_vector_levels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ValuePass/") + accel::vector_level_name(level))
            .c_str(),
        BM_ValuePass, level);
  }
  return true;
}();

}  // namespace
