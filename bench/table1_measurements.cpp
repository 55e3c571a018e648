// Table I: average measurement results, speedup, and energy-efficiency of
// inference on the (synthetic) bAbI suite.
//
// Reproduces the paper's rows — CPU, GPU, FPGA @ 25/50/75/100 MHz, and
// FPGA + inference thresholding at the same clocks — plus two extension
// rows for the §V estimate of the interface-unbound design.
// Speedup and FLOPS/kJ are normalized to the GPU row, as in the paper.
#include <cstdio>

#include "common.hpp"

namespace {

using namespace mann;
using bench::SuiteMeasurement;

void print_columns(const SuiteMeasurement& m, const SuiteMeasurement& gpu) {
  const power::NormalizedReport n = power::normalize(m.energy, gpu.energy);
  std::printf("%-26s %10.2f %9.2f %9.2f %12.2f", m.name.c_str(),
              m.energy.seconds, m.energy.watts, n.speedup,
              n.energy_efficiency);
}

void print_row(const SuiteMeasurement& m, const SuiteMeasurement& gpu) {
  print_columns(m, gpu);
  std::printf("\n");
}

}  // namespace

int main() {
  const auto suite = bench::load_suite();

  bench::print_header(
      "Table I: average time, power, speedup and FLOPS/kJ (normalized to "
      "GPU)\nworkload: 20 tasks x 200 questions x 100 repetitions");
  std::printf("%-26s %10s %9s %9s %12s\n", "Configuration", "Time (s)",
              "Power (W)", "Speedup", "FLOPS/kJ");
  bench::print_rule();

  const SuiteMeasurement cpu =
      bench::measure_suite_baseline(suite, runtime::cpu_baseline());
  const SuiteMeasurement gpu =
      bench::measure_suite_baseline(suite, runtime::gpu_baseline());
  print_row(cpu, gpu);
  print_row(gpu, gpu);

  std::vector<SuiteMeasurement> fpga_rows;
  for (const bool ith : {false, true}) {
    for (const double mhz : {25.0, 50.0, 75.0, 100.0}) {
      runtime::FpgaRunOptions opt;
      opt.clock_hz = mhz * 1.0e6;
      opt.ith = ith;
      opt.repetitions = bench::kRepetitions;
      fpga_rows.push_back(bench::measure_suite_fpga(suite, opt));
      print_row(fpga_rows.back(), gpu);
    }
  }

  // §V: "If this were not the case [interface-bound], we estimate that our
  // approach would use 162 times less energy than the GPU." Model the
  // same device with the word stream at bulk-DMA rate. The quote names an
  // energy ratio, which FLOPS/kJ (speedup^2 x P_gpu / P) is not, so these
  // rows print the GPU's joules over the FPGA's beside it.
  bench::print_rule();
  std::printf(
      "extension: interface-unbound estimate (stream at DMA rate); last "
      "column: GPU energy / FPGA energy\n");
  for (const bool ith : {false, true}) {
    runtime::FpgaRunOptions opt;
    opt.clock_hz = 100.0e6;
    opt.ith = ith;
    opt.repetitions = bench::kRepetitions;
    accel::HostLinkConfig link;
    link.words_per_second = link.model_words_per_second;
    link.per_story_latency = 0.0;
    link.result_latency = 0.0;
    opt.link = link;
    SuiteMeasurement m = bench::measure_suite_fpga(suite, opt);
    m.name += " (no IF bound)";
    print_columns(m, gpu);
    std::printf(" %9.1fx\n", gpu.energy.joules() / m.energy.joules());
  }

  // Companion detail: ITH time saving per clock (paper: 6-18%).
  bench::print_rule();
  std::printf("ITH time saving by clock: ");
  for (std::size_t i = 0; i < 4; ++i) {
    const double saving = (fpga_rows[i].energy.seconds -
                           fpga_rows[i + 4].energy.seconds) /
                          fpga_rows[i].energy.seconds;
    std::printf("%s%.1f%%@%dMHz", i == 0 ? "" : "  ", saving * 100.0,
                25 * (static_cast<int>(i) + 1));
  }
  std::printf("\nmean accuracy: plain=%.4f  ith=%.4f (rho = 1.0)\n",
              fpga_rows[0].accuracy, fpga_rows[4].accuracy);
  std::printf("mean ITH output probes/story: %.1f of %zu classes\n",
              fpga_rows[4].mean_output_probes,
              suite.front().dataset.vocab_size());
  return 0;
}
