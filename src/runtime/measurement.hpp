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

/// Everything needed to measure one bAbI task. Scores are measured on
/// request (model::evaluate_accuracy, core::evaluate_ith), not here.
struct TaskArtifacts {
  data::TaskDataset dataset;
  model::MemN2N model;
  core::InferenceThresholding ith;
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
/// each trained model under `cache_dir` (created if missing) with its
/// ITH tables beside it. A model file's name carries a fingerprint of
/// every knob that shapes training, so changing one retrains instead of
/// serving a stale model; a model file that does not load is retrained.
/// The ITH tables are Algorithm 1's training-time product: each model's
/// `.ith` record is keyed by the full IthConfig,
/// core::kCalibrationVersion, the DatasetConfig and a checksum of the
/// model file, and is recalibrated and rewritten (atomically) only when
/// it is missing, corrupt or keyed differently. Loading a complete cache
/// therefore runs no model inference: it generates the datasets and
/// reads files.
/// `max_tasks` > 0 finishes only the first that many tasks of the joint
/// suite (the joint vocabulary still spans all 20, so cached models stay
/// compatible); 0 means the whole suite.
[[nodiscard]] std::vector<TaskArtifacts> prepare_suite_cached(
    const PrepareConfig& config, const std::string& cache_dir,
    std::size_t max_tasks = 0);

/// True when every model the (possibly task-limited) suite would load is
/// already cached under `cache_dir` together with its ITH record — the
/// "no training or calibration required" probe benches use to decide
/// between the shared cache and --train-fallback. It checks that the
/// files exist, not what they hold: prepare_suite_cached still retrains
/// a torn model and recalibrates a corrupt or differently keyed record.
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
