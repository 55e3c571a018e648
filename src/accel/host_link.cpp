#include "accel/host_link.hpp"

#include <cmath>
#include <stdexcept>

namespace mann::accel {
namespace {

sim::Cycle seconds_to_cycles(double seconds, double clock_hz) {
  return static_cast<sim::Cycle>(std::llround(seconds * clock_hz));
}

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
      synchronous_(config.link.synchronous_stories) {
  validate_config(config);  // every conversion below is then exact
  clock_hz_ = static_cast<std::uint64_t>(config.clock_hz);
  words_per_second_ = static_cast<std::uint64_t>(config.link.words_per_second);
  model_words_per_second_ =
      static_cast<std::uint64_t>(config.link.model_words_per_second);
  story_latency_cycles_ =
      seconds_to_cycles(config.link.per_story_latency, config.clock_hz);
  result_latency_cycles_ =
      seconds_to_cycles(config.link.result_latency, config.clock_hz);
}

void HostLinkModule::couple_drain(const sim::Fifo<StreamWord>& drained) {
  if (&drained != &fifo_in_) {
    throw std::invalid_argument(
        "HostLinkModule: the coupled drain must pop this link's FIFO_IN");
  }
  drained_ = true;
}

void HostLinkModule::couple_sink(const AcceleratorState& state,
                                 const sim::Fifo<StreamWord>& cmd_fifo,
                                 const sim::Cycle& countdown,
                                 sim::Cycle flush_cycles) {
  if (drained_ && clock_hz_ / words_per_second_ > flush_cycles) {
    sink_state_ = &state;
    cmd_fifo_ = &cmd_fifo;
    sink_countdown_ = &countdown;
  }
}

std::size_t HostLinkModule::find_story_end(std::size_t start) const noexcept {
  for (std::size_t at = start + 1; at < words_.size(); ++at) {
    switch (words_[at].op) {
      case StreamOp::kSentenceStart:
      case StreamOp::kContextWord:
      case StreamOp::kQuestionStart:
      case StreamOp::kQuestionWord:
        continue;
      case StreamOp::kEndOfStory:
        return at;
      case StreamOp::kModelWord:
      case StreamOp::kStoryStart:
        return words_.size();  // not a story CONTROL would take
    }
  }
  return words_.size();
}

void HostLinkModule::skip_upload(sim::Cycle cycles) {
  // After t cycles the pushes are min(⌊(credit + t·rate)/clock⌋,
  // room - 1 + t) (upload_window()). A cycle refuses a push when the
  // credit allows more than the room, so every cycle from the first on
  // which credit + t·(rate - clock) reaches room words refuses.
  const std::uint64_t rate = model_words_per_second_;
  const std::size_t room = fifo_in_.capacity() - fifo_in_.size();
  const Credit total = credit_ + Credit{cycles} * rate;
  const auto pushes = static_cast<sim::Cycle>(
      std::min<Credit>(total / clock_hz_, room - 1 + Credit{cycles}));
  const sim::Cycle first =
      adds_to(credit_, Credit{room} * clock_hz_, rate - clock_hz_);
  const sim::Cycle rejects = cycles >= first ? cycles - first + 1 : 0;
  // FIFO_IN holds identical model words, so only its level moves: it
  // rises by the pushes past one a cycle, and each cycle ends with a pop.
  for (sim::Cycle i = cycles; i < pushes; ++i) {
    fifo_in_.push({StreamOp::kModelWord, 0});
  }
  fifo_in_.account_push_pop(cycles, rejects);
  credit_ = total - Credit{pushes} * clock_hz_;
  cycle_ += cycles;
  position_ += pushes;
  link_active_cycles_ += cycles;
  mark_busy(cycles);
  mark_stalled(rejects);
  streamed_.upload = true;
}

void HostLinkModule::skip_story(sim::Cycle cycles) {
  // At most one word a cycle: the k-th lands on the add that brings the
  // credit to k words, and crosses the empty FIFO_IN on that cycle.
  const Credit total = credit_ + Credit{cycles} * words_per_second_;
  const auto pushes = static_cast<std::size_t>(total / clock_hz_);
  if (pushes > 0) {
    streamed_.words =
        std::span(words_).subspan(position_ - model_words_, pushes);
    streamed_.since_last_push =
        cycles - adds_to(credit_, Credit{pushes} * clock_hz_,
                         words_per_second_);
  }
  credit_ = total - Credit{pushes} * clock_hz_;
  fifo_in_.account_push_pop(pushes, 0);
  cycle_ += cycles;
  position_ += pushes;
  link_active_cycles_ += pushes;
  mark_busy(pushes);
}

}  // namespace mann::accel
