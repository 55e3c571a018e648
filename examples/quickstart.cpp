// Quickstart: the whole pipeline on one bAbI-style task.
//
//   1. generate a synthetic qa1 dataset
//   2. train a MemN2N on it
//   3. calibrate inference thresholding (Algo. 1)
//   4. run inference on the simulated FPGA accelerator, with and
//      without ITH, and print timing/energy
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/ith_eval.hpp"
#include "model/trainer.hpp"
#include "power/energy.hpp"
#include "runtime/measurement.hpp"

int main() {
  using namespace mann;

  // 1. Data: 900 training / 200 test stories of task qa1.
  runtime::PrepareConfig prep = runtime::default_prepare_config();
  prep.dataset.train_stories = 600;
  prep.dataset.test_stories = 150;
  prep.train.epochs = 20;

  std::printf("preparing %s ...\n",
              data::task_name(data::TaskId::kSingleSupportingFact).c_str());
  const runtime::TaskArtifacts art =
      runtime::prepare_task(data::TaskId::kSingleSupportingFact, prep);

  std::printf(
      "vocab=%zu  test accuracy: model=%.3f  ith=%.3f\n",
      art.dataset.vocab_size(),
      static_cast<double>(model::evaluate_accuracy(art.model, art.dataset.test)),
      static_cast<double>(
          core::evaluate_ith(art.model, art.ith, art.dataset.test).accuracy));
  std::printf("ITH: %zu/%zu classes hold thresholds\n",
              art.ith.active_classes(), art.ith.num_classes());

  // 2. Accelerator at 100 MHz, plain vs inference thresholding.
  for (const bool ith : {false, true}) {
    runtime::FpgaRunOptions opt;
    opt.clock_hz = 100.0e6;
    opt.ith = ith;
    const runtime::MeasurementRow row = runtime::measure_fpga(art, opt);
    std::printf(
        "%-18s time=%8.4f s  power=%6.2f W  acc=%.3f  probes/story=%6.1f  "
        "early-exit=%4.1f%%\n",
        row.config_name.c_str(), row.energy.seconds, row.energy.watts,
        row.accuracy, row.mean_output_probes, row.early_exit_rate * 100.0);
  }

  // 3. Baselines for scale.
  for (const auto& baseline :
       {runtime::cpu_baseline(), runtime::gpu_baseline()}) {
    const runtime::MeasurementRow row =
        runtime::measure_baseline(baseline, art);
    std::printf("%-18s time=%8.4f s  power=%6.2f W  acc=%.3f\n",
                row.config_name.c_str(), row.energy.seconds, row.energy.watts,
                row.accuracy);
  }
  return 0;
}
