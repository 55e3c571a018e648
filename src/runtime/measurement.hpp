// Experiment harness: prepares per-task artifacts (dataset -> trained
// model -> ITH calibration -> device program) and measures every
// configuration of Table I / Fig. 4.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "cluster/cluster.hpp"
#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/memn2n.hpp"
#include "model/trainer.hpp"
#include "power/power_model.hpp"
#include "runtime/baseline.hpp"
#include "serve/server.hpp"

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
/// evaluation regime: output dimension |I| = joint vocab ≫ |E|).
/// Expensive (trains 20 models); benches call it once and reuse.
[[nodiscard]] std::vector<TaskArtifacts> prepare_suite(
    const PrepareConfig& config);

/// Like prepare_suite but caches trained models under `cache_dir`
/// (created if missing). The cache key encodes the configuration knobs
/// that affect training, so changing them retrains instead of serving a
/// stale model. ITH calibration is recomputed (cheap, deterministic).
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
  bool index_ordering = true;
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

/// Serving measurement options: the mann::serve runtime over a set of
/// prepared tasks (each task is one served model; traffic mixes them).
struct ServingOptions {
  double clock_hz = 100.0e6;
  std::size_t pool_devices = 2;
  std::size_t dedicated_devices = 0;  ///< 0 = fully shared pool
  std::size_t max_batch = 8;
  sim::Cycle max_wait_cycles = 200'000;
  serve::ArrivalProcess process = serve::ArrivalProcess::kPoisson;
  double mean_interarrival_cycles = 50'000.0;
  /// Diurnal process only: rate modulation amplitude [0,1) and period.
  double diurnal_amplitude = 0.5;
  double diurnal_period_cycles = 10.0e6;
  /// Trace replay only: the recorded arrival schedule.
  std::vector<serve::TraceEntry> trace;
  /// Per-task completion deadlines (sim::kNever = no SLO). `slo_per_task`
  /// entries of 0 fall back to the default.
  sim::Cycle slo_default_deadline_cycles = sim::kNever;
  std::vector<sim::Cycle> slo_per_task;
  /// Tenant registry (empty = single-tenant) and the admission-control
  /// knobs; a default AdmissionConfig is transparent.
  std::vector<serve::TenantConfig> tenants;
  serve::AdmissionConfig admission;
  /// Dispatch policy, work-stealing and model-eviction policy.
  serve::SchedulerPolicy policy = serve::SchedulerPolicy::kEdf;
  bool work_stealing = true;
  serve::EvictionPolicyKind eviction = serve::EvictionPolicyKind::kLru;
  std::size_t requests = 500;
  std::uint64_t seed = 2019;
  bool ith = false;
  /// Host execution: worker threads simulating batches ahead of the
  /// serving clock (0 = the sequential path) and the service-cycle
  /// cache. The simulated report is bit-identical either way; only wall
  /// clock moves.
  std::size_t workers = 0;
  std::size_t cache_capacity = 1024;
  /// External cache shared across measure_serving calls (non-owning);
  /// when null and workers > 0 the scheduler owns a private one.
  accel::ServiceCycleCache* cycle_cache = nullptr;
  /// Observability sinks threaded into the server (non-owning, both
  /// optional; no-ops when mann::obs is compiled out). `trace_recorder`
  /// is the lifecycle-span sink — distinct from `trace`, the replayed
  /// arrival schedule above.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace_recorder = nullptr;
};

/// One serving row (sits beside the Table-I rows in reports).
struct ServingMeasurement {
  std::string config_name;
  serve::ServingReport report;
};

/// Runs the serving stack over the suite's test splits and reports
/// throughput, latency percentiles, utilization and serving accuracy.
[[nodiscard]] ServingMeasurement measure_serving(
    const std::vector<TaskArtifacts>& suite, const ServingOptions& options);

/// Fleet-level knobs layered on top of ServingOptions: the per-instance
/// server template comes from the ServingOptions, these choose how many
/// instances to stand up, how the router places arrivals, and whether
/// the diurnal autoscaler is watching.
struct ClusterServingOptions {
  std::size_t instances = 4;
  cluster::RouterConfig router;
  cluster::AutoscalerConfig autoscaler;
  /// Host threads advancing instances between routing barriers (0/1 =
  /// sequential). Moves only wall clock, never a simulated number.
  std::size_t fleet_threads = 0;
  /// Segments of the fleet-shared cycle cache (0 = no shared cache).
  std::size_t cache_segments = 0;
};

/// One cluster row: the fleet report plus the host wall clock spent
/// driving it (the ClusterReport itself is purely simulated).
struct ClusterMeasurement {
  std::string config_name;
  double host_wall_seconds = 0.0;
  cluster::ClusterReport report;
};

/// Runs the mann::cluster routing tier over the suite: N instances built
/// from the same ServingOptions template, arrivals from its traffic
/// block routed across them. The report is a pure function of
/// (options, cluster_options) — worker counts move only wall clock.
[[nodiscard]] ClusterMeasurement measure_cluster(
    const std::vector<TaskArtifacts>& suite, const ServingOptions& options,
    const ClusterServingOptions& cluster_options);

}  // namespace mann::runtime
