// mann_cli: command-line front end to the library.
//
//   mann_cli generate --task 3 --count 2 [--seed 7]
//       print synthetic stories of a task as text
//   mann_cli train --task 1 --out model.bin [--epochs 25] [--dim 24]
//                  [--hops 3] [--train 700] [--test 200] [--seed 42]
//                  [--init-seed 1234]
//       train a MemN2N and save model.bin (+ model.bin.vocab)
//   mann_cli eval --model model.bin --task 1 [--train 700] [--test 200]
//                 [--seed 42]
//       accuracy of a saved model on a freshly generated test split
//   mann_cli simulate --model model.bin --task 1 [--mhz 100] [--ith]
//                     [--train 700] [--test 200] [--seed 42]
//       run the test split through the device simulator
//
// The dataset for a (task, seed) pair is fully reproducible, so a model
// trained by `train` is evaluated by `eval` on exactly the held-out split
// it never saw. Each command accepts only the flags its lines above
// list; any other --key exits 2 naming it. Counts take the digit rule
// every tool shares (bench::count_flag): a value that is not plain
// digits, is out of range or overflows exits 2 naming the flag.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "common.hpp"
#include "core/ith_eval.hpp"
#include "data/encoder.hpp"
#include "model/serialize.hpp"
#include "model/trainer.hpp"
#include "runtime/measurement.hpp"

namespace {

using namespace mann;

/// Minimal --key value / --flag parser over the flags after the command
/// name (argv[1]); a key outside `accepted` exits 2.
class Args {
 public:
  Args(int argc, char** argv,
       std::initializer_list<std::string_view> accepted) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (std::find(accepted.begin(), accepted.end(), key) ==
          accepted.end()) {
        std::fprintf(stderr, "%s does not take --%s\n", argv[1],
                     key.c_str());
        std::exit(2);
      }
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// The count flag --key (at least `least`), or `fallback` when absent.
  [[nodiscard]] std::uint64_t count(const std::string& key,
                                    std::uint64_t fallback,
                                    std::uint64_t least = 0) const {
    const auto it = values_.find(key);
    return it == values_.end()
               ? fallback
               : bench::count_flag("--" + key, it->second.c_str(), least);
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

data::TaskId task_from(const Args& args) {
  const std::uint64_t n = args.count("task", 1, 1);
  if (n > 20) {
    std::fprintf(stderr, "--task must be 1..20\n");
    std::exit(2);
  }
  return static_cast<data::TaskId>(n);
}

data::DatasetConfig dataset_config_from(const Args& args) {
  data::DatasetConfig dc;
  dc.train_stories = args.count("train", 700, 1);
  dc.test_stories = args.count("test", 200, 1);
  dc.seed = args.count("seed", 42);
  return dc;
}

void print_story(const data::Story& story) {
  for (const data::Sentence& s : story.context) {
    std::printf("  ");
    for (std::size_t i = 0; i < s.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : " ", s[i].c_str());
    }
    std::printf(".\n");
  }
  std::printf("  Q: ");
  for (std::size_t i = 0; i < story.question.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : " ", story.question[i].c_str());
  }
  std::printf("?  A: %s\n", story.answer.c_str());
}

int cmd_generate(const Args& args) {
  const data::TaskId task = task_from(args);
  numeric::Rng rng(args.count("seed", 7));
  const std::uint64_t count = args.count("count", 3);
  std::printf("%s\n", data::task_name(task).c_str());
  for (std::uint64_t i = 0; i < count; ++i) {
    std::printf("story %llu:\n", static_cast<unsigned long long>(i + 1));
    print_story(data::generate_story(task, rng));
  }
  return 0;
}

int cmd_train(const Args& args) {
  const data::TaskId task = task_from(args);
  const std::string out = args.str("out", "model.bin");

  const data::TaskDataset ds =
      data::build_task_dataset(task, dataset_config_from(args));
  model::ModelConfig mc;
  mc.vocab_size = ds.vocab_size();
  mc.embedding_dim = args.count("dim", 24, 1);
  mc.hops = args.count("hops", 3, 1);
  numeric::Rng rng(args.count("init-seed", 1234));
  model::MemN2N net(mc, rng);

  model::TrainConfig tc;
  tc.epochs = args.count("epochs", 25);
  std::printf("training %s: %zu stories, vocab %zu, E=%zu, %zu hops, %zu "
              "epochs\n",
              data::task_name(task).c_str(), ds.train.size(),
              ds.vocab_size(), mc.embedding_dim, mc.hops, tc.epochs);
  const auto history = model::train(net, ds.train, tc);
  for (const model::EpochStats& ep : history) {
    if (ep.epoch == 1 || ep.epoch % 5 == 0) {
      std::printf("  epoch %2zu: loss %.4f  train acc %.3f\n", ep.epoch,
                  static_cast<double>(ep.mean_loss),
                  static_cast<double>(ep.train_accuracy));
    }
  }
  const float acc = model::evaluate_accuracy(net, ds.test);
  std::printf("test accuracy: %.3f\n", static_cast<double>(acc));

  model::save_model_file(out, net);
  data::save_vocab_file(out + ".vocab", ds.vocab);
  std::printf("saved %s and %s.vocab\n", out.c_str(), out.c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  const data::TaskId task = task_from(args);
  const std::string path = args.str("model", "model.bin");
  const model::MemN2N net = model::load_model_file(path);
  const data::TaskDataset ds =
      data::build_task_dataset(task, dataset_config_from(args));
  if (ds.vocab_size() != net.config().vocab_size) {
    std::fprintf(stderr,
                 "vocab mismatch: dataset %zu vs model %zu (same --task/"
                 "--seed/--train/--test as training required)\n",
                 ds.vocab_size(), net.config().vocab_size);
    return 1;
  }
  const float acc = model::evaluate_accuracy(net, ds.test);
  std::printf("%s: accuracy %.3f on %zu stories\n",
              data::task_name(task).c_str(), static_cast<double>(acc),
              ds.test.size());
  return 0;
}

int cmd_simulate(const Args& args) {
  const data::TaskId task = task_from(args);
  const std::string path = args.str("model", "model.bin");
  const model::MemN2N net = model::load_model_file(path);
  const data::TaskDataset ds =
      data::build_task_dataset(task, dataset_config_from(args));
  if (ds.vocab_size() != net.config().vocab_size) {
    std::fprintf(stderr, "vocab mismatch (see eval)\n");
    return 1;
  }

  accel::AccelConfig cfg;
  cfg.clock_hz = static_cast<double>(args.count("mhz", 100, 1)) * 1.0e6;
  cfg.ith_enabled = args.flag("ith");

  core::InferenceThresholding ith;
  const accel::DeviceProgram program = [&] {
    if (cfg.ith_enabled) {
      ith = core::InferenceThresholding::calibrate(net, ds.train, {});
      return accel::compile_model(net, &ith);
    }
    return accel::compile_model(net);
  }();
  const accel::Accelerator device(cfg, program);
  const accel::RunResult run = device.run(ds.test);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < run.stories.size(); ++i) {
    if (run.stories[i].prediction == ds.test[i].answer) {
      ++correct;
    }
  }
  std::printf("%s @ %.0f MHz%s: %zu stories in %.3f ms, accuracy %.3f, "
              "probes/story %.1f, early exits %.1f%%\n",
              data::task_name(task).c_str(), cfg.clock_hz / 1.0e6,
              cfg.ith_enabled ? " +ITH" : "", run.stories.size(),
              run.seconds * 1e3,
              static_cast<double>(correct) /
                  static_cast<double>(run.stories.size()),
              run.mean_output_probes(), run.early_exit_rate() * 100.0);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: mann_cli <generate|train|eval|simulate> [--options]\n"
               "see the header of tools/mann_cli.cpp for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") {
      return cmd_generate(Args(argc, argv, {"task", "count", "seed"}));
    }
    if (cmd == "train") {
      return cmd_train(Args(argc, argv,
                            {"task", "out", "epochs", "dim", "hops", "train",
                             "test", "seed", "init-seed"}));
    }
    if (cmd == "eval") {
      return cmd_eval(
          Args(argc, argv, {"model", "task", "train", "test", "seed"}));
    }
    if (cmd == "simulate") {
      return cmd_simulate(Args(argc, argv,
                               {"model", "task", "mhz", "ith", "train",
                                "test", "seed"}));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
