// accelerator_sim: a deployment-eye view of the FPGA device model.
//
// Trains a model, compiles it (with ITH tables) for the device, runs the
// test split through the cycle-level simulator at a chosen clock, and
// prints where the cycles and the energy went: per-module busy/stall
// breakdown, datapath op counts, FIFO traffic, host-link occupancy and the
// power-model decomposition.
//
// Usage: accelerator_sim [clock_mhz=100] [ith=1]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "accel/accelerator.hpp"
#include "model/trainer.hpp"
#include "power/power_model.hpp"
#include "runtime/measurement.hpp"

int main(int argc, char** argv) {
  using namespace mann;
  double mhz = 100.0;
  bool ith = true;
  if (argc > 1) {
    mhz = std::atof(argv[1]);
  }
  if (argc > 2) {
    ith = std::atoi(argv[2]) != 0;
  }

  runtime::PrepareConfig prep = runtime::default_prepare_config();
  prep.train.epochs = 25;
  std::printf("preparing qa1 model ...\n");
  const runtime::TaskArtifacts art =
      runtime::prepare_task(data::TaskId::kSingleSupportingFact, prep);

  accel::AccelConfig cfg;
  // The device clocks in whole Hz, so 33.3 MHz runs at 33,300,000 Hz.
  cfg.clock_hz = std::round(mhz * 1.0e6);
  cfg.ith_enabled = ith;
  const accel::DeviceProgram program =
      accel::compile_model(art.model, ith ? &art.ith : nullptr);
  const accel::Accelerator device(cfg, program);

  std::printf("device: %.0f MHz, lane width %zu, FIFO depth %zu, ITH %s\n",
              mhz, cfg.timing.lane_width, cfg.fifo_depth,
              ith ? "on" : "off");
  std::printf("program: %zu classes, E=%zu, %zu hops, %zu wire words\n\n",
              program.vocab_size, program.embedding_dim, program.hops,
              program.model_words());

  const accel::RunResult run = device.run(art.dataset.test);

  std::printf("ran %zu stories in %llu cycles (%.3f ms)\n",
              run.stories.size(),
              static_cast<unsigned long long>(run.total_cycles),
              run.seconds * 1e3);
  std::printf("early exits: %.1f%%   mean output probes: %.1f / %zu\n\n",
              run.early_exit_rate() * 100.0, run.mean_output_probes(),
              program.vocab_size);

  std::printf("%-12s %12s %12s %8s %12s\n", "module", "busy", "stalled",
              "busy%", "ops");
  for (const accel::ModuleReport& m : run.modules) {
    std::printf("%-12s %12llu %12llu %7.1f%% %12llu\n", m.name.c_str(),
                static_cast<unsigned long long>(m.stats.busy_cycles),
                static_cast<unsigned long long>(m.stats.stall_cycles),
                100.0 * static_cast<double>(m.stats.busy_cycles) /
                    static_cast<double>(run.total_cycles),
                static_cast<unsigned long long>(m.stats.ops.total()));
  }

  const sim::OpCounts& ops = run.total_ops;
  std::printf(
      "\ndatapath ops: mac=%llu add=%llu exp=%llu div=%llu bram_rd=%llu "
      "bram_wr=%llu cmp=%llu\n",
      static_cast<unsigned long long>(ops.mac),
      static_cast<unsigned long long>(ops.add),
      static_cast<unsigned long long>(ops.exp),
      static_cast<unsigned long long>(ops.div),
      static_cast<unsigned long long>(ops.mem_read),
      static_cast<unsigned long long>(ops.mem_write),
      static_cast<unsigned long long>(ops.compare));
  std::printf("FIFO_IN: %llu words, max occupancy %zu, link rejects %llu\n",
              static_cast<unsigned long long>(run.fifo_in_stats.pushes),
              run.fifo_in_stats.max_occupancy,
              static_cast<unsigned long long>(
                  run.fifo_in_stats.full_rejects));
  std::printf("host link active: %.1f%% of cycles\n\n",
              100.0 * static_cast<double>(run.link_active_cycles) /
                  static_cast<double>(run.total_cycles));

  const power::FpgaPowerModel power_model;
  const power::FpgaPowerReport p = power_model.estimate(run, cfg.clock_hz);
  std::printf("power: %.2f W mean  (static %.2f J, clock %.2f J, "
              "datapath %.4f J, link %.4f J over %.3f ms)\n",
              p.mean_watts, p.static_joules, p.clock_joules,
              p.dynamic_joules, p.link_joules, p.seconds * 1e3);
  std::printf("datapath energy by module:");
  for (const power::ModulePowerRow& row : power_model.per_module(run)) {
    if (row.dynamic_joules > 0.0) {
      std::printf("  %s %.1f%%", row.name.c_str(),
                  100.0 * row.dynamic_joules / p.dynamic_joules);
    }
  }
  std::printf("\n");

  std::size_t correct = 0;
  for (std::size_t i = 0; i < run.stories.size(); ++i) {
    correct += run.stories[i].prediction == art.dataset.test[i].answer;
  }
  std::printf("accuracy on device: %.1f%% (float model: %.1f%%)\n",
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(run.stories.size()),
              100.0 * static_cast<double>(model::evaluate_accuracy(
                          art.model, art.dataset.test)));
  return 0;
}
