// Fig. 4: energy efficiency of inference on each of the 20 bAbI-style
// tasks, normalized to the GPU, for the six configurations the paper
// plots: CPU, GPU, FPGA @25 MHz, FPGA+ITH @25 MHz, FPGA @100 MHz and
// FPGA+ITH @100 MHz.
#include <cstdio>

#include "common.hpp"
#include "numeric/stats.hpp"

int main() {
  using namespace mann;
  const auto suite = bench::load_suite();

  bench::print_header(
      "Fig. 4: per-task energy efficiency normalized to the GPU");
  std::printf("%-5s %-30s %8s %8s %10s %12s %10s %12s\n", "task", "name",
              "CPU", "GPU", "FPGA@25", "+ITH@25", "FPGA@100", "+ITH@100");
  bench::print_rule(104);

  std::vector<float> fpga25_ratios;
  std::vector<float> fpga25_ith_ratios;
  std::vector<float> fpga100_ratios;
  std::vector<float> fpga100_ith_ratios;

  for (const runtime::TaskArtifacts& art : suite) {
    const auto gpu = runtime::measure_baseline(runtime::gpu_baseline(), art,
                                               bench::kRepetitions);
    const auto cpu = runtime::measure_baseline(runtime::cpu_baseline(), art,
                                               bench::kRepetitions);
    auto fpga = [&](double mhz, bool ith) {
      runtime::FpgaRunOptions opt;
      opt.clock_hz = mhz * 1.0e6;
      opt.ith = ith;
      opt.repetitions = bench::kRepetitions;
      return runtime::measure_fpga(art, opt);
    };
    const auto f25 = fpga(25.0, false);
    const auto f25i = fpga(25.0, true);
    const auto f100 = fpga(100.0, false);
    const auto f100i = fpga(100.0, true);

    auto eff = [&](const runtime::MeasurementRow& row) {
      return power::normalize(row.energy, gpu.energy).energy_efficiency;
    };
    const double e_cpu = eff(cpu);
    const double e25 = eff(f25);
    const double e25i = eff(f25i);
    const double e100 = eff(f100);
    const double e100i = eff(f100i);
    fpga25_ratios.push_back(static_cast<float>(e25));
    fpga25_ith_ratios.push_back(static_cast<float>(e25i));
    fpga100_ratios.push_back(static_cast<float>(e100));
    fpga100_ith_ratios.push_back(static_cast<float>(e100i));

    std::printf("%-5d %-30s %7.2fx %7.2fx %9.2fx %11.2fx %9.2fx %11.2fx\n",
                data::task_number(art.dataset.id),
                data::task_name(art.dataset.id).c_str(), e_cpu, 1.0, e25,
                e25i, e100, e100i);
  }

  bench::print_rule(104);
  std::printf(
      "geomean: FPGA@25=%.1fx  +ITH@25=%.1fx  FPGA@100=%.1fx  "
      "+ITH@100=%.1fx\n",
      numeric::geometric_mean(fpga25_ratios),
      numeric::geometric_mean(fpga25_ith_ratios),
      numeric::geometric_mean(fpga100_ratios),
      numeric::geometric_mean(fpga100_ith_ratios));
  std::printf(
      "expected shape: every FPGA column > 1x on every task; ITH widens "
      "the margin on every task but\nqa16, where it reads 0.01x lower "
      "at both clocks.\n");
  return 0;
}
