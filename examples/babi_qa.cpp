// babi_qa: the paper's motivating scenario — question answering over short
// stories. Trains a MemN2N on a chosen synthetic bAbI-style task, then
// answers a handful of generated stories, printing the story text, the
// attention the memory network placed on each sentence (Eq. 1), the
// model's answer and the ground truth.
//
// Usage: babi_qa [task_number=1] [stories_to_show=5]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "data/encoder.hpp"
#include "model/trainer.hpp"
#include "runtime/measurement.hpp"

namespace {

using namespace mann;

void print_sentence(const data::Sentence& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : " ", s[i].c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int task_number = 1;
  int show = 5;
  if (argc > 1) {
    task_number = std::atoi(argv[1]);
  }
  if (argc > 2) {
    show = std::atoi(argv[2]);
  }
  if (task_number < 1 || task_number > 20) {
    std::fprintf(stderr, "task number must be 1..20\n");
    return 1;
  }
  const auto task = static_cast<data::TaskId>(task_number);

  runtime::PrepareConfig prep = runtime::default_prepare_config();
  prep.train.epochs = 25;
  std::printf("training MemN2N on %s ...\n", data::task_name(task).c_str());
  const runtime::TaskArtifacts art = runtime::prepare_task(task, prep);
  std::printf("test accuracy: %.1f%% (vocab %zu, E=%zu, %zu hops)\n\n",
              100.0 * static_cast<double>(model::evaluate_accuracy(
                          art.model, art.dataset.test)),
              art.dataset.vocab_size(), art.model.config().embedding_dim,
              art.model.config().hops);

  // Show fresh stories (not from the training stream).
  numeric::Rng rng(20250612);
  for (int n = 0; n < show; ++n) {
    const data::Story story = data::generate_story(task, rng);
    const data::EncodedStory enc = data::encode_story(story, art.dataset.vocab);
    const model::ForwardTrace trace = art.model.forward(enc);

    std::printf("story %d\n", n + 1);
    for (std::size_t i = 0; i < story.context.size(); ++i) {
      // Attention of the final hop over memory slots (Eq. 1).
      const float attention = trace.a.back()[i];
      std::printf("  [%4.0f%%] ", 100.0F * attention);
      print_sentence(story.context[i]);
      std::printf("\n");
    }
    std::printf("  Q: ");
    print_sentence(story.question);
    const std::string answer =
        art.dataset.vocab.word(static_cast<std::int32_t>(trace.prediction));
    std::printf("?\n  model: %-12s truth: %-12s %s\n\n", answer.c_str(),
                story.answer.c_str(),
                answer == story.answer ? "[correct]" : "[wrong]");
  }
  return 0;
}
