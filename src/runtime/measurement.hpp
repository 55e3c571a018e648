// Experiment harness: prepares per-task artifacts (dataset -> trained
// model -> ITH calibration -> device program) and measures every
// configuration of Table I / Fig. 4.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/memn2n.hpp"
#include "model/trainer.hpp"
#include "power/power_model.hpp"
#include "runtime/baseline.hpp"

namespace mann::runtime {

/// Everything needed to measure one bAbI task.
struct TaskArtifacts {
  data::TaskDataset dataset;
  model::MemN2N model;
  core::InferenceThresholding ith;
  float test_accuracy = 0.0F;
  float ith_test_accuracy = 0.0F;
};

/// Knobs for artifact preparation (shared across all benches so every
/// experiment sees the same trained models).
struct PrepareConfig {
  data::DatasetConfig dataset;
  model::ModelConfig model;    ///< vocab_size is filled per task
  model::TrainConfig train;
  core::IthConfig ith;
  std::uint64_t init_seed = 1234;
};

/// Sensible defaults: E=24, 3 hops, 30 epochs, ρ=1.0.
[[nodiscard]] PrepareConfig default_prepare_config();

/// Builds dataset, trains the model, calibrates ITH.
[[nodiscard]] TaskArtifacts prepare_task(data::TaskId id,
                                         const PrepareConfig& config);

/// Prepares all 20 tasks over the joint vocabulary (the Table I / Fig. 4
/// evaluation regime: output dimension |I| = joint vocab ≫ |E|), caching
/// trained models under `cache_dir` (created if missing). The cache key
/// encodes the configuration knobs that affect training, so changing
/// them retrains instead of serving a stale model. ITH calibration is
/// recomputed (deterministic).
/// `max_tasks` > 0 finishes only the first that many tasks of the joint
/// suite (the joint vocabulary still spans all 20, so cached models stay
/// compatible); 0 means the whole suite.
[[nodiscard]] std::vector<TaskArtifacts> prepare_suite_cached(
    const PrepareConfig& config, const std::string& cache_dir,
    std::size_t max_tasks = 0);

/// True when every model the (possibly task-limited) suite would load is
/// already cached under `cache_dir` — the "no training required" probe
/// benches use to decide between the shared cache and --train-fallback.
[[nodiscard]] bool suite_cache_complete(const PrepareConfig& config,
                                        const std::string& cache_dir,
                                        std::size_t max_tasks = 0);

/// One measured configuration (a row of Table I).
struct MeasurementRow {
  std::string config_name;
  power::EnergyReport energy;
  double accuracy = 0.0;
  /// FPGA-only extras (zero elsewhere).
  double mean_output_probes = 0.0;
  double early_exit_rate = 0.0;
  double link_active_seconds = 0.0;
};

/// FPGA measurement options.
struct FpgaRunOptions {
  double clock_hz = 100.0e6;
  bool ith = false;
  std::size_t repetitions = 1;
  /// When set, overrides the default host-link model (the ablate_host_link
  /// bench and the §V "no interface bound" estimate use this).
  std::optional<accel::HostLinkConfig> link;
};

/// Measures a baseline (CPU/GPU) on the task's test split.
[[nodiscard]] MeasurementRow measure_baseline(
    const BaselineConfig& baseline, const TaskArtifacts& artifacts,
    std::size_t repetitions = 1);

/// Measures the accelerator on the task's test split.
[[nodiscard]] MeasurementRow measure_fpga(
    const TaskArtifacts& artifacts, const FpgaRunOptions& options,
    const power::FpgaPowerConfig& power_config = {});

}  // namespace mann::runtime
