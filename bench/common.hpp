// Shared infrastructure of the experiment harnesses: one canonical suite
// configuration (so every table/figure sees the same trained models, as in
// the paper), suite-level aggregation, and plain-text table printing.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "power/energy.hpp"
#include "runtime/measurement.hpp"
#include "serve/server.hpp"

namespace mann::bench {

/// The evaluation regime shared by Table I / Fig. 3 / Fig. 4: 20 tasks,
/// joint vocabulary, 700 train / 200 test stories per task.
[[nodiscard]] runtime::PrepareConfig suite_config();

/// Paper protocol: timings repeated 100 times.
inline constexpr std::size_t kRepetitions = 100;

/// Loads (or trains once and caches) the 20-task suite.
[[nodiscard]] std::vector<runtime::TaskArtifacts> load_suite();

/// Compiles each task (without ITH tables) into a served model whose
/// corpus is a view of the task's test split, so `suite` must outlive
/// every server built from the result.
[[nodiscard]] std::vector<serve::ServedModel> served_models(
    const std::vector<runtime::TaskArtifacts>& suite);

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

}  // namespace mann::bench
