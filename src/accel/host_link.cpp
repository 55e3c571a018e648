#include "accel/host_link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mann::accel {
namespace {

sim::Cycle seconds_to_cycles(double seconds, double clock_hz) {
  return static_cast<sim::Cycle>(std::llround(seconds * clock_hz));
}

// Credit ticks one next_activity() call replays at most. A very slow link
// then reports an early activity (one ordinary tick, then a fresh replay)
// instead of replaying for the whole gap.
constexpr sim::Cycle kCreditReplayCap = sim::Cycle{1} << 16;

}  // namespace

HostLinkModule::HostLinkModule(const AccelConfig& config,
                               std::vector<StreamWord> words,
                               sim::Fifo<StreamWord>& fifo_in,
                               sim::Fifo<std::int32_t>& fifo_out)
    : Module("HOST_LINK"),
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

void HostLinkModule::tick() {
  ++cycle_;
  // Drain one answer per cycle from FIFO_OUT; the host observes it after
  // the readback latency.
  if (const auto answer = fifo_out_.try_pop()) {
    answers_.push_back({*answer, cycle_ + result_latency_cycles_});
  }

  if (position_ >= words_.size()) {
    return;  // everything sent; only draining answers now
  }
  if (delay_ > 0) {
    // DMA/doorbell setup: the link is occupied but no words flow.
    --delay_;
    credit_ = 0.0;
    ++link_active_cycles_;
    mark_busy();
    return;
  }

  // Model upload is bulk DMA; the inference stream is word-granular.
  credit_ += current_rate();
  bool pushed = false;
  while (credit_ >= 1.0 && position_ < words_.size()) {
    const StreamWord& word = words_[position_];
    if (word.op == StreamOp::kStoryStart) {
      // Request/response host: wait for the previous story's answer
      // before streaming the next request.
      if (awaiting_answer()) {
        credit_ = 0.0;
        break;
      }
      if (!latency_charged_ && story_latency_cycles_ > 0) {
        delay_ = story_latency_cycles_;
        latency_charged_ = true;
        break;
      }
    }
    if (!fifo_in_.try_push(word)) {
      mark_stalled();
      break;
    }
    if (word.op == StreamOp::kStoryStart) {
      latency_charged_ = false;
    }
    if (word.op == StreamOp::kEndOfStory) {
      ++stories_sent_;
    }
    credit_ -= 1.0;
    ++position_;
    pushed = true;
  }
  if (pushed) {
    ++link_active_cycles_;
    mark_busy();
  }
}

std::optional<sim::Cycle> HostLinkModule::next_activity(
    sim::Cycle now) const {
  if (!fifo_out_.empty()) {
    return now;  // an answer drains on this tick
  }
  if (position_ >= words_.size() || awaiting_answer()) {
    return sim::kNever;  // the next answer in FIFO_OUT wakes us
  }
  // credit_ is a double, so there is no exact closed form: replay tick()'s
  // accumulation from where the DMA delay (if any) leaves it. The first
  // tick whose add reaches 1.0 tries a push or charges the story latency.
  const sim::Cycle first = now + delay_;
  const double rate = current_rate();
  double credit = delay_ > 0 ? 0.0 : credit_;
  for (sim::Cycle k = 0; k < kCreditReplayCap; ++k) {
    credit += rate;
    if (credit >= 1.0) {
      return first + k;
    }
    if (!(rate > 0.0)) {
      return sim::kNever;  // a stalled link: only the watchdog ends it
    }
  }
  return first + kCreditReplayCap;
}

void HostLinkModule::skip(sim::Cycle cycles) {
  cycle_ += cycles;
  if (position_ >= words_.size()) {
    return;
  }
  const sim::Cycle setup = std::min(cycles, delay_);
  if (setup > 0) {
    delay_ -= setup;
    credit_ = 0.0;
    link_active_cycles_ += setup;
    mark_busy(setup);
    cycles -= setup;
  }
  // The remaining ticks add credit add by add, as tick() does. Only a host
  // awaiting an answer can reach 1.0 here, and its tick resets to 0.
  const double rate = current_rate();
  for (; cycles > 0; --cycles) {
    credit_ += rate;
    if (credit_ >= 1.0) {
      credit_ = 0.0;
    }
  }
}

}  // namespace mann::accel
