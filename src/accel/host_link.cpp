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

void HostLinkModule::couple_upload_drain(
    const sim::Fifo<StreamWord>& drained) {
  if (&drained != &fifo_in_) {
    throw std::invalid_argument(
        "HostLinkModule: the coupled drain must pop this link's FIFO_IN");
  }
  upload_drained_ = true;
}

void HostLinkModule::skip_upload(sim::Cycle cycles) {
  // Each cycle: credit_ += rate, one push (credit_ -= clock), then a
  // refused push if credit_ still holds a word. The credit so climbs by
  // rate - clock > 0 a cycle, and every cycle from the first that leaves
  // it holding a word refuses.
  const std::uint64_t climb = model_words_per_second_ - clock_hz_;
  const sim::Cycle first = adds_to_word(credit_, climb);
  const std::uint64_t rejects = cycles >= first ? cycles - first + 1 : 0;
  credit_ += Credit{cycles} * climb;
  fifo_in_.account_push_pop(cycles, rejects);
  cycle_ += cycles;
  position_ += cycles;
  link_active_cycles_ += cycles;
  mark_busy(cycles);
  mark_stalled(rejects);
}

}  // namespace mann::accel
