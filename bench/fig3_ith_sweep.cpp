// Fig. 3: effect of inference thresholding and index ordering — accuracy
// and normalized number of output-layer comparisons versus the threshold
// constant rho, with and without silhouette index ordering.
#include <cstdio>

#include "common.hpp"
#include "core/ith_eval.hpp"

int main() {
  using namespace mann;
  const auto suite = bench::load_suite();

  bench::print_header(
      "Fig. 3: accuracy and normalized #comparisons vs rho\n"
      "(normalized accuracy = accuracy / accuracy without ITH; "
      "comparisons normalized to |I|)");
  std::printf("%-12s %14s %14s %16s %16s\n", "rho", "acc (ITH)",
              "acc (no ord)", "cmp (ITH)", "cmp (no ord)");
  bench::print_rule();

  // Baseline without ITH.
  double base_acc = 0.0;
  std::size_t stories = 0;
  for (const runtime::TaskArtifacts& art : suite) {
    const auto ev = core::evaluate_full_mips(art.model, art.dataset.test);
    base_acc += static_cast<double>(ev.accuracy) *
                static_cast<double>(ev.stories);
    stories += ev.stories;
  }
  base_acc /= static_cast<double>(stories);
  std::printf("%-12s %13.1f%% %13.1f%% %15.1f%% %15.1f%%\n", "w/o ITH",
              100.0, 100.0, 100.0, 100.0);

  for (const float rho : {1.0F, 0.99F, 0.95F, 0.9F}) {
    double acc_ord = 0.0;
    double acc_nat = 0.0;
    double cmp_ord = 0.0;
    double cmp_nat = 0.0;
    for (const runtime::TaskArtifacts& art : suite) {
      core::IthConfig cfg = bench::suite_config().ith;
      cfg.rho = rho;
      const auto ith = core::InferenceThresholding::calibrate(
          art.model, art.dataset.train, cfg);
      const auto n = static_cast<double>(art.dataset.test.size());
      const auto ev_o =
          core::evaluate_ith(art.model, ith, art.dataset.test, true);
      const auto ev_n =
          core::evaluate_ith(art.model, ith, art.dataset.test, false);
      acc_ord += static_cast<double>(ev_o.accuracy) * n;
      acc_nat += static_cast<double>(ev_n.accuracy) * n;
      cmp_ord += static_cast<double>(ev_o.normalized_comparisons) * n;
      cmp_nat += static_cast<double>(ev_n.normalized_comparisons) * n;
    }
    const auto total = static_cast<double>(stories);
    std::printf("ITH (%.2f)   %13.1f%% %13.1f%% %15.1f%% %15.1f%%\n",
                static_cast<double>(rho),
                100.0 * acc_ord / total / base_acc,
                100.0 * acc_nat / total / base_acc,
                100.0 * cmp_ord / total, 100.0 * cmp_nat / total);
  }
  std::printf(
      "\nexpected shape: comparisons fall as rho decreases; ordering cuts "
      "comparisons at every rho.\nIt raises accuracy only below rho = "
      "0.99: at 1.00 and 0.99 the unordered search reads higher.\n");
  return 0;
}
