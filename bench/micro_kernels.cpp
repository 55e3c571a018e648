// Micro-benchmarks of the numeric kernels on the hot paths: the float
// reference model, the fixed-point datapath, the ITH calibration
// statistics and one whole device simulation. google-benchmark timings,
// independent of the trained suite.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/compiler.hpp"
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

void BM_FxDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto fa = random_vector(n, 3);
  const auto fb = random_vector(n, 4);
  accel::FxVector a(n);
  accel::FxVector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = accel::Fx::from_float(fa[i]);
    b[i] = accel::Fx::from_float(fb[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::fx_dot(a, b));
  }
}
BENCHMARK(BM_FxDot)->Arg(24)->Arg(256);

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

// One Accelerator::run over qa1 test stories, on a randomly initialised
// model: the uncached device-simulation path. Items are simulated cycles,
// so items_per_second is simulated cycles per host second (1e9 / it = host
// ns per simulated cycle). Args: fabric clock in MHz, stories per run, and
// whether the model is already resident (1) or uploaded first (0, the
// cold run). With one story, cold minus resident time is the host cost of
// one model upload.
void BM_AcceleratorRun(benchmark::State& state) {
  data::DatasetConfig dc;
  dc.train_stories = 1;
  dc.test_stories = 50;
  const auto ds =
      data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
  model::ModelConfig mc;
  mc.vocab_size = ds.vocab_size();
  mc.embedding_dim = 24;
  mc.hops = 3;
  numeric::Rng rng(11);
  const model::MemN2N net(mc, rng);
  accel::AccelConfig config;
  config.clock_hz = static_cast<double>(state.range(0)) * 1.0e6;
  const accel::Accelerator device(config, accel::compile_model(net));
  const std::span<const data::EncodedStory> stories(
      ds.test.data(), static_cast<std::size_t>(state.range(1)));
  accel::RunOptions options;
  options.model_resident = state.range(2) != 0;
  std::int64_t cycles = 0;
  for (auto _ : state) {
    const accel::RunResult result = device.run(stories, options);
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
    ->Args({100, 1, 1});

}  // namespace
