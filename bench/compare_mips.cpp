// Related-work comparison (§VI-B): inference thresholding vs ALSH-based
// and clustering-based approximate MIPS on the same trained output layer.
//
// The paper dismisses hashing/clustering MIPS for the resource-limited
// output layer ("may be too slow ... in resource-limited environments");
// this bench quantifies that: full-length dot products per query, extra
// projection/centroid operations per query, recall of the exact argmax,
// and end-task accuracy.
#include <cstdio>

#include "common.hpp"
#include "core/mips_baselines.hpp"

int main() {
  using namespace mann;
  const auto suite = bench::load_suite();
  const runtime::TaskArtifacts& art = suite.front();  // qa1, joint vocab
  const numeric::Matrix& w_o = art.model.params().w_o;

  const core::ExactMips exact(w_o);

  core::AlshMips::Config alsh_cfg;
  alsh_cfg.tables = 8;
  alsh_cfg.bits = 6;
  const core::AlshMips alsh(w_o, alsh_cfg);

  core::ClusterMips::Config cm_cfg;
  cm_cfg.clusters = 12;
  cm_cfg.probe_clusters = 3;
  const core::ClusterMips clusters(w_o, cm_cfg);

  struct Row {
    const char* name;
    double dots = 0.0;
    double overhead = 0.0;
    std::size_t recall = 0;
    std::size_t correct = 0;
  };
  Row rows[4] = {{"exact scan"},
                 {"inference thresholding"},
                 {"ALSH (8x6 bits)"},
                 {"cluster (12, probe 3)"}};

  const auto& test = art.dataset.test;
  for (const data::EncodedStory& story : test) {
    const auto h = art.model.forward_features(story);
    const auto truth = static_cast<std::size_t>(story.answer);

    const auto r_exact = exact.query(h);
    rows[0].dots += static_cast<double>(r_exact.dot_products);
    rows[0].recall += 1;
    rows[0].correct += r_exact.index == truth ? 1 : 0;

    const auto r_ith = art.ith.predict_from_features(art.model, h);
    rows[1].dots += static_cast<double>(r_ith.comparisons);
    rows[1].recall += r_ith.prediction == r_exact.index ? 1 : 0;
    rows[1].correct += r_ith.prediction == truth ? 1 : 0;

    const auto r_alsh = alsh.query(h);
    rows[2].dots += static_cast<double>(r_alsh.dot_products);
    rows[2].overhead += static_cast<double>(r_alsh.overhead_ops);
    rows[2].recall += r_alsh.index == r_exact.index ? 1 : 0;
    rows[2].correct += r_alsh.index == truth ? 1 : 0;

    const auto r_cm = clusters.query(h);
    rows[3].dots += static_cast<double>(r_cm.dot_products);
    rows[3].overhead += static_cast<double>(r_cm.overhead_ops);
    rows[3].recall += r_cm.index == r_exact.index ? 1 : 0;
    rows[3].correct += r_cm.index == truth ? 1 : 0;
  }

  bench::print_header(
      "Related-work MIPS comparison on the trained output layer (qa1, "
      "|I| = " + std::to_string(w_o.rows()) + ")");
  std::printf("%-26s %12s %12s %12s %10s %10s\n", "method", "dots/query",
              "extra ops", "total ops", "recall@1", "accuracy");
  bench::print_rule();
  const auto n = static_cast<double>(test.size());
  for (const Row& r : rows) {
    std::printf("%-26s %12.1f %12.1f %12.1f %9.1f%% %9.1f%%\n", r.name,
                r.dots / n, r.overhead / n, (r.dots + r.overhead) / n,
                100.0 * static_cast<double>(r.recall) / n,
                100.0 * static_cast<double>(r.correct) / n);
  }
  std::printf(
      "\nexpected shape: ITH needs no per-query overhead and keeps exact-"
      "fallback semantics. Hashing's\noverheads cost it more total ops "
      "than ITH at lower recall; clustering needs fewer total ops\nthan "
      "ITH at full recall and the same accuracy, so its overheads do not "
      "eat its savings here.\n");
  return 0;
}
