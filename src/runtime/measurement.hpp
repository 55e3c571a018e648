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
/// three files per task under `cache_dir` (created if missing), all
/// replaced atomically when written:
///  - `.mann`, the trained model. Its name carries a fingerprint of every
///    knob that shapes training, so changing one retrains instead of
///    serving a stale model; a model file that does not load is
///    retrained.
///  - `.ith`, Algorithm 1's training-time product: the model's ITH
///    tables, keyed by the full IthConfig, core::kCalibrationVersion, the
///    DatasetConfig and a checksum of the model file.
///  - `.data`, the task's encoded train and test splits and the joint
///    vocabulary (words in id order), keyed by data::kGeneratorVersion,
///    the task number and the DatasetConfig.
/// A record is rewritten only when it is missing, corrupt or keyed
/// differently (for `.data` also when it holds another vocabulary than
/// the suite's first task): a `.ith` record is recalibrated, and a bad
/// `.data` record makes the load generate the joint suite once. Loading a
/// complete cache therefore only reads files: it generates no story and
/// runs no model inference.
/// `max_tasks` > 0 loads only the first that many tasks of the joint
/// suite and reads only their files (the joint vocabulary still spans all
/// 20, so cached models stay compatible); 0 means the whole suite.
[[nodiscard]] std::vector<TaskArtifacts> prepare_suite_cached(
    const PrepareConfig& config, const std::string& cache_dir,
    std::size_t max_tasks = 0);

/// True when every task the (possibly task-limited) suite would load has
/// all three files cached under `cache_dir`: its model (`.mann`), its
/// ITH record (`.ith`) and its dataset record (`.data`) — the "no
/// training, calibration or generation required" probe benches use to
/// decide between the shared cache and --train-fallback. It checks that
/// the files exist, not what they hold: prepare_suite_cached still
/// retrains a torn model and rewrites a corrupt or differently keyed
/// record.
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
