#include "accel/host_link.hpp"

#include <cmath>

namespace mann::accel {
namespace {

sim::Cycle seconds_to_cycles(double seconds, double clock_hz) {
  return static_cast<sim::Cycle>(std::llround(seconds * clock_hz));
}

}  // namespace

LinkTiming::LinkTiming(const AccelConfig& config) {
  validate_config(config);  // every conversion below is then exact
  clock_hz = static_cast<std::uint64_t>(config.clock_hz);
  words_per_second = static_cast<std::uint64_t>(config.link.words_per_second);
  model_words_per_second =
      static_cast<std::uint64_t>(config.link.model_words_per_second);
  story_latency =
      seconds_to_cycles(config.link.per_story_latency, config.clock_hz);
  result_latency =
      seconds_to_cycles(config.link.result_latency, config.clock_hz);
}

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
      link_(config),
      synchronous_(config.link.synchronous_stories) {}

}  // namespace mann::accel
