// Fig. 2(b): logit distributions of a trained model fitted to two-component
// Gaussian mixture models. For each frequent answer class the bench fits a
// 2-GMM to the pooled logits (positive HG_i + negative HG_i-bar) and
// reports the components, the separation, the KDE-derived threshold and
// the silhouette coefficient that drives the probe order.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/ith.hpp"
#include "numeric/mixture.hpp"

int main() {
  using namespace mann;
  const auto suite = bench::load_suite();
  const runtime::TaskArtifacts& art = suite.front();  // qa1
  const core::LogitPopulations logits =
      core::collect_logits(art.model, art.dataset.train);

  bench::print_header(
      "Fig. 2(b): per-class logit mixture fits (task qa1, trained model)");
  std::printf("%-14s %7s | %19s | %19s | %7s %9s %9s\n", "class", "n_pos",
              "low (w, mu, sigma)", "high (w, mu, sigma)", "sep",
              "theta", "silh");
  bench::print_rule(104);

  // The most frequent answer classes.
  std::vector<std::size_t> classes;
  for (std::size_t i = 0; i < art.ith.num_classes(); ++i) {
    if (logits.positive[i].size() >= 20) {
      classes.push_back(i);
    }
  }
  std::sort(classes.begin(), classes.end(), [&](std::size_t a, std::size_t b) {
    return logits.positive[a].size() > logits.positive[b].size();
  });
  if (classes.size() > 8) {
    classes.resize(8);
  }

  for (const std::size_t cls : classes) {
    const std::vector<float>& pos = logits.positive[cls];
    const std::vector<float>& neg = logits.negative[cls];
    std::vector<float> pooled(neg.begin(), neg.end());
    pooled.insert(pooled.end(), pos.begin(), pos.end());
    const numeric::MixtureFit fit = numeric::fit_two_gaussians(pooled);
    const float theta = art.ith.thresholds()[cls];
    std::printf(
        "%-14s %7zu | %5.2f %6.2f %6.2f | %5.2f %6.2f %6.2f | %7.2f "
        "%9.3f %9.3f\n",
        art.dataset.vocab.word(static_cast<std::int32_t>(cls)).c_str(),
        pos.size(), fit.low.weight, fit.low.mean, fit.low.stddev,
        fit.high.weight, fit.high.mean, fit.high.stddev,
        numeric::separation(fit), theta, art.ith.silhouettes()[cls]);
  }
  std::printf(
      "\nexpected shape: answer classes are bimodal (separation >> 1); "
      "the high mode holds the\n'this class is the answer' logits that "
      "inference thresholding fires on.\n");
  return 0;
}
