// Shared infrastructure of the experiment harnesses: one canonical suite
// configuration (so every table/figure sees the same trained models, as in
// the paper), suite-level aggregation, and plain-text table printing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "power/energy.hpp"
#include "runtime/measurement.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace mann::bench {

/// The evaluation regime shared by Table I / Fig. 3 / Fig. 4: 20 tasks,
/// joint vocabulary, 700 train / 200 test stories per task.
[[nodiscard]] runtime::PrepareConfig suite_config();

/// Paper protocol: timings repeated 100 times.
inline constexpr std::size_t kRepetitions = 100;

/// Loads (or trains once and caches) the 20-task suite.
[[nodiscard]] std::vector<runtime::TaskArtifacts> load_suite();

/// The serving tools' workload: the first `tasks` suite tasks, loaded
/// from mann_bench_cache/ when it holds all their models, ITH records
/// and dataset records, else (when
/// `train_fallback`) quick stand-ins trained inline on 600 train and 150
/// test stories for 20 epochs. Exits 2 for `tasks` outside 1..suite
/// size or a missing cache without `train_fallback`.
[[nodiscard]] std::vector<runtime::TaskArtifacts> serving_suite(
    std::size_t tasks, bool train_fallback);

/// Compiles each task (without ITH tables) into a served model whose
/// corpus is a view of the task's test split, so `suite` must outlive
/// every server built from the result.
[[nodiscard]] std::vector<serve::ServedModel> served_models(
    const std::vector<runtime::TaskArtifacts>& suite);

/// Mixed per-task SLOs: even tasks are "interactive" (3 ms at 100 MHz),
/// odd tasks "batch" (30 ms). The split gives EDF an urgency that
/// differs from arrival order, which FIFO cannot express.
[[nodiscard]] std::vector<sim::Cycle> mixed_slos(std::size_t tasks);

/// The serving acceptance workload over `tasks` suite tasks: 4 devices,
/// one dedicated per shard, batches of 8, Poisson arrivals every 500
/// cycles (saturating), EDF, mixed SLOs. serve_throughput times it and
/// the serving contract tests gate its simulated report.
[[nodiscard]] serve::ServerConfig acceptance_config(std::size_t tasks);

/// One instance replaying `trace`: task ids folded onto the `tasks`
/// served models, a default tenant registry covering every recorded
/// tenant (QoS knobs are the replayer's choice), 8 devices, mixed SLOs.
[[nodiscard]] serve::ServerConfig trace_replay_config(
    std::vector<serve::TraceEntry> trace, std::size_t tasks);

/// The routed fleet over `instance`'s trace amplified `scale`-fold: 4
/// instances, power-of-two routing (the default), each instance counted
/// saturated for spilling at its peak-hour queue depth (256).
[[nodiscard]] cluster::ClusterConfig fleet_config(
    const serve::ServerConfig& instance, std::size_t scale);

/// One configuration measured over the whole suite.
struct SuiteMeasurement {
  std::string name;
  power::EnergyReport energy;  ///< summed seconds/flops, energy-mean watts
  double accuracy = 0.0;       ///< story-weighted mean
  double mean_output_probes = 0.0;
  double link_active_seconds = 0.0;
};

/// Sums a baseline config over all tasks.
[[nodiscard]] SuiteMeasurement measure_suite_baseline(
    const std::vector<runtime::TaskArtifacts>& suite,
    const runtime::BaselineConfig& baseline,
    std::size_t repetitions = kRepetitions);

/// Sums an FPGA configuration over all tasks.
[[nodiscard]] SuiteMeasurement measure_suite_fpga(
    const std::vector<runtime::TaskArtifacts>& suite,
    runtime::FpgaRunOptions options);

/// Printf helpers shared by the harnesses.
void print_rule(int width = 96);
void print_header(const std::string& title);

/// The value of the count flag `flag` in every harness and tool: plain
/// digits by serve::parse_digits, at least `least`. Anything else prints
/// why and exits 2.
[[nodiscard]] std::uint64_t count_flag(const std::string& flag,
                                       const char* value,
                                       std::uint64_t least = 0);

/// The value of the real-valued flag `flag`: the whole token is one
/// finite number by serve::parse_real. Anything else prints why and
/// exits 2.
[[nodiscard]] double real_flag(const std::string& flag, const char* value);

}  // namespace mann::bench
