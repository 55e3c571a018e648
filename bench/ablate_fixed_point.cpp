// Ablation: datapath fixed-point precision.
//
// Runs the MANN forward pass entirely in FixedPoint<F> for several
// fractional widths (model::quantized_logits) and reports argmax agreement
// with the float reference plus worst-case logit error. Justifies the
// Q16.16 default: agreement is near-perfect from 12 fractional bits up.
#include <cstdio>

#include "common.hpp"
#include "model/quantized.hpp"
#include "model/trainer.hpp"
#include "numeric/fixed_point.hpp"

namespace {

using namespace mann;

template <typename Fx>
void run_format(const runtime::TaskArtifacts& art, const char* name) {
  const model::QuantizationReport r =
      model::evaluate_quantized<Fx>(art.model, art.dataset.test);
  std::printf("%-10s %12.1f%% %12.1f%% %16.5f\n", name,
              100.0 * r.argmax_agreement, 100.0 * r.accuracy,
              static_cast<double>(r.max_logit_error));
}

}  // namespace

int main() {
  const auto suite = bench::load_suite();
  const runtime::TaskArtifacts& art = suite.front();

  bench::print_header(
      "Ablation: fixed-point fractional bits vs float-reference agreement "
      "(qa1, 200 stories)");
  std::printf("%-10s %13s %13s %16s\n", "format", "argmax agree",
              "accuracy", "max |logit err|");
  bench::print_rule();
  std::printf("%-10s %12.1f%% %12.1f%% %16s\n", "float32", 100.0,
              100.0 * static_cast<double>(model::evaluate_accuracy(
                          art.model, art.dataset.test)),
              "0");
  run_format<numeric::fx8>(art, "Q24.8");
  run_format<numeric::fx12>(art, "Q20.12");
  run_format<numeric::fx16>(art, "Q16.16");
  run_format<numeric::fx20>(art, "Q12.20");
  run_format<numeric::fx24>(art, "Q8.24");
  std::printf(
      "\nexpected shape: agreement ~100%% for >= 12 fractional bits; the "
      "Q16.16 datapath default\nis safely inside the flat region.\n");
  return 0;
}
