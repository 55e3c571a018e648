#include "accel/host_link.hpp"

#include <cmath>
#include <stdexcept>

namespace mann::accel {
namespace {

sim::Cycle seconds_to_cycles(double seconds, double clock_hz) {
  return static_cast<sim::Cycle>(std::llround(seconds * clock_hz));
}

// Doubles hold every integer below this exactly.
constexpr double kExactIntegers = 9007199254740992.0;  // 2^53

}  // namespace

HostLinkModule::HostLinkModule(const AccelConfig& config,
                               std::size_t model_words,
                               std::vector<StreamWord> words,
                               sim::Fifo<StreamWord>& fifo_in,
                               sim::Fifo<std::int32_t>& fifo_out)
    : Module("HOST_LINK"),
      model_words_(model_words),
      words_(std::move(words)),
      fifo_in_(fifo_in),
      fifo_out_(fifo_out),
      words_per_cycle_(config.link.words_per_second / config.clock_hz),
      model_words_per_cycle_(config.link.model_words_per_second /
                             config.clock_hz),
      story_latency_cycles_(
          seconds_to_cycles(config.link.per_story_latency, config.clock_hz)),
      result_latency_cycles_(
          seconds_to_cycles(config.link.result_latency, config.clock_hz)),
      synchronous_(config.link.synchronous_stories) {
  if (words_per_cycle_ <= 0.0) {
    throw std::invalid_argument("HostLinkModule: non-positive link rate");
  }
}

void HostLinkModule::couple_upload_drain(
    const sim::Fifo<StreamWord>& drained) {
  if (&drained != &fifo_in_) {
    throw std::invalid_argument(
        "HostLinkModule: the coupled drain must pop this link's FIFO_IN");
  }
  upload_drained_ = true;
}

HostLinkModule::CreditRun HostLinkModule::replay_credit_run(double from,
                                                            double rate) {
  CreditRun run{from, rate, from, 0, false};
  double credit = from;
  while (run.below < kCreditReplayCap) {
    credit += rate;
    if (credit >= 1.0) {
      run.crosses = true;
      break;
    }
    run.last = credit;
    ++run.below;
    if (!(rate > 0.0)) {
      break;  // the credit cannot climb: each add is a run of its own
    }
  }
  return run;
}

void HostLinkModule::skip_upload(sim::Cycle cycles) {
  // Each cycle: credit_ += rate, one push (credit_ -= 1), then a refused
  // push if credit_ is still >= 1. With an integer rate r >= 2 and an
  // integer credit c every add and subtract below 2^53 is exact: after
  // the k-th push the credit is c + k(r - 1) >= 1, so every push is
  // followed by a refusal.
  const double rate = model_words_per_cycle_;
  std::uint64_t rejects = 0;
  if (rate == std::floor(rate) && credit_ == std::floor(credit_) &&
      credit_ + static_cast<double>(cycles) * rate < kExactIntegers) {
    rejects = cycles;
    credit_ += static_cast<double>(cycles) * (rate - 1.0);
  } else {
    // Otherwise replay the two roundings of each cycle add by add.
    for (sim::Cycle k = 0; k < cycles; ++k) {
      credit_ += rate;
      credit_ -= 1.0;
      rejects += credit_ >= 1.0 ? 1 : 0;
    }
  }
  fifo_in_.account_push_pop(cycles, rejects);
  cycle_ += cycles;
  position_ += cycles;
  link_active_cycles_ += cycles;
  mark_busy(cycles);
  mark_stalled(rejects);
}

}  // namespace mann::accel
