// Ablation: host-link bandwidth sensitivity.
//
// The paper's §V claim that speedup saturates with clock because the host
// interface dominates is a statement about this sweep: vary the
// word-stream rate and watch the 25-vs-100 MHz gap and the normalized
// efficiency move. The efficiency columns are FLOPS/kJ, not an energy
// ratio, so they are not §V's "162 times less energy";
// table1_measurements prints the energy ratio of the interface-unbound
// row.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mann;
  const auto suite = bench::load_suite();
  const runtime::TaskArtifacts& art = suite.front();  // qa1

  const auto gpu = runtime::measure_baseline(runtime::gpu_baseline(), art,
                                             bench::kRepetitions);

  bench::print_header(
      "Ablation: host-link word rate vs time and energy efficiency (qa1)");
  std::printf("%-14s %12s %12s %10s %12s %12s\n", "words/s", "t@25 (s)",
              "t@100 (s)", "t25/t100", "eff@25", "eff@100");
  bench::print_rule();

  for (const double wps : {5.0e5, 1.0e6, 2.0e6, 4.0e6, 8.0e6, 1.6e7,
                           2.0e8}) {
    auto measure = [&](double mhz) {
      runtime::FpgaRunOptions opt;
      opt.clock_hz = mhz * 1.0e6;
      opt.repetitions = bench::kRepetitions;
      accel::HostLinkConfig link;
      link.words_per_second = wps;
      opt.link = link;
      return runtime::measure_fpga(art, opt);
    };
    const auto r25 = measure(25.0);
    const auto r100 = measure(100.0);
    std::printf("%-14.1e %12.3f %12.3f %10.2f %11.1fx %11.1fx\n", wps,
                r25.energy.seconds, r100.energy.seconds,
                r25.energy.seconds / r100.energy.seconds,
                power::normalize(r25.energy, gpu.energy).energy_efficiency,
                power::normalize(r100.energy, gpu.energy).energy_efficiency);
  }
  std::printf(
      "\nexpected shape: slow links flatten the clock sweep (t25 ~ t100); "
      "fast links widen it\n(t25/t100 rises toward the clock ratio of 4) "
      "and raise FLOPS/kJ (speedup^2 x P_gpu / P)\nwell past 162x, so "
      "these columns do not measure §V's \"162 times less energy\" (an "
      "energy\nratio; see table1_measurements).\n");
  return 0;
}
