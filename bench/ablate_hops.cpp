// Ablation: number of read hops (the depth of the recurrent READ path).
//
// The recurrent hop count is the MANN's main capacity knob and directly
// multiplies the MEM/READ cycle cost on the device. This bench retrains
// qa2 (two supporting facts — genuinely multi-hop) at hops 1..4 and
// reports accuracy alongside device cycles per story.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace mann;

  bench::print_header(
      "Ablation: read hops vs accuracy and device cycles (qa2)");
  std::printf("%-6s %12s %12s %16s %14s\n", "hops", "train acc",
              "test acc", "cycles/story", "time@100MHz");
  bench::print_rule();

  for (const std::size_t hops : {1U, 2U, 3U, 4U}) {
    runtime::PrepareConfig prep = runtime::default_prepare_config();
    prep.model.hops = hops;
    prep.dataset.train_stories = 900;
    prep.dataset.test_stories = 150;
    prep.train.epochs = 30;
    const runtime::TaskArtifacts art =
        runtime::prepare_task(data::TaskId::kTwoSupportingFacts, prep);

    accel::AccelConfig cfg;
    cfg.clock_hz = 100.0e6;
    // Unbound link isolates the compute cost of the extra hops.
    cfg.link.words_per_second = cfg.link.model_words_per_second;
    cfg.link.per_story_latency = 0.0;
    cfg.link.result_latency = 0.0;
    const accel::Accelerator device(cfg, accel::compile_model(art.model));
    const accel::RunResult run = device.run(art.dataset.test);
    const double cycles_per_story =
        static_cast<double>(run.total_cycles) /
        static_cast<double>(art.dataset.test.size());

    const auto history_acc = model::evaluate_accuracy(art.model,
                                                      art.dataset.train);
    std::printf("%-6zu %11.1f%% %11.1f%% %16.1f %11.2f us\n", hops,
                100.0 * static_cast<double>(history_acc),
                100.0 * static_cast<double>(model::evaluate_accuracy(
                            art.model, art.dataset.test)),
                cycles_per_story, cycles_per_story / 100.0);
  }
  std::printf(
      "\nexpected shape: extra hops add model capacity (train fit rises "
      "from 1 to 3 hops; a\nbag-of-words MemN2N still generalizes "
      "modestly on qa2, as in Sukhbaatar et al.'s BoW\nrows) and cycles "
      "grow linearly with hops — hop count is a capacity/latency dial.\n");
  return 0;
}
