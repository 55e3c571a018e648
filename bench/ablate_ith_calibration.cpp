// Ablation: robustness of inference-thresholding calibration to its
// density-estimation hyper-parameters (KDE bandwidth, minimum positive
// sample count). DESIGN.md calls these out as the knobs Algorithm 1
// leaves open.
#include <cstdio>

#include "common.hpp"
#include "core/ith_eval.hpp"

int main() {
  using namespace mann;
  const auto suite = bench::load_suite();
  const runtime::TaskArtifacts& art = suite.front();  // qa1

  const auto base = core::evaluate_full_mips(art.model, art.dataset.test);

  bench::print_header(
      "Ablation: ITH calibration hyper-parameters (qa1, rho = 1.0)");
  std::printf("%-22s %10s %14s %14s %12s\n", "configuration", "active",
              "accuracy", "cmp/story", "early-exit");
  bench::print_rule();
  std::printf("%-22s %10s %13.1f%% %14.1f %12s\n", "w/o ITH", "-",
              100.0 * static_cast<double>(base.accuracy),
              static_cast<double>(base.mean_comparisons), "-");

  auto run = [&](const char* label, float bandwidth, std::size_t min_pos) {
    core::IthConfig cfg;
    cfg.rho = 1.0F;
    cfg.kde_bandwidth = bandwidth;
    cfg.min_positive_samples = min_pos;
    const auto ith = core::InferenceThresholding::calibrate(
        art.model, art.dataset.train, cfg);
    const auto ev = core::evaluate_ith(art.model, ith, art.dataset.test);
    std::printf("%-22s %10zu %13.1f%% %14.1f %11.1f%%\n", label,
                ith.active_classes(),
                100.0 * static_cast<double>(ev.accuracy),
                static_cast<double>(ev.mean_comparisons),
                100.0 * static_cast<double>(ev.early_exit_rate));
  };

  run("bw=auto (Silverman)", 0.0F, 5);
  run("bw=0.02", 0.02F, 5);
  run("bw=0.05", 0.05F, 5);
  run("bw=0.1", 0.1F, 5);
  run("bw=0.3", 0.3F, 5);
  run("bw=1.0", 1.0F, 5);
  bench::print_rule();
  run("min_pos=1", 0.0F, 1);
  run("min_pos=20", 0.0F, 20);
  run("min_pos=100", 0.0F, 100);
  std::printf(
      "\nexpected shape: accuracy stays ~flat across bandwidths at rho = "
      "1.0 (the threshold only\nfires where the negative density "
      "vanishes); narrow kernels fire more aggressively, and the\nwidest "
      "tried (bw = 1.0) exits as often as the automatic bandwidth, so wide "
      "kernels do not\ndisable early exits in this range. Raising min_pos "
      "trades comparisons for safety.\n");
  return 0;
}
