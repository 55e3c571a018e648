#include "accel/accelerator.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "accel/control.hpp"
#include "accel/host_link.hpp"
#include "accel/input_write.hpp"
#include "accel/mem_module.hpp"
#include "accel/output_module.hpp"
#include "accel/read_module.hpp"
#include "accel/service_cycle_cache.hpp"
#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/simulator.hpp"

namespace mann::accel {

namespace {

// FNV-1a (the cache's shared mixer) over two digests in one pass. The
// device digest covers the timing-relevant identity (config + program):
// everything the simulation's timing or outputs can depend on is mixed
// in; watchdog_cycles is deliberately excluded (it only bounds runaway
// simulations — expiry throws, so a watchdog difference can never
// publish a differing result). The values digest covers only what the
// value pass (Datapath) reads: the program and the two knobs that change
// its arithmetic.
class Fingerprint {
 public:
  void mix(std::uint64_t word) noexcept {
    device_ = fnv1a_mix(device_, word);
    values_ = fnv1a_mix(values_, word);
  }
  void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  void mix(bool value) noexcept { mix(std::uint64_t{value ? 1U : 0U}); }
  void mix_matrix(const FxMatrix& m) noexcept {
    mix(m.rows());
    mix(m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (const Fx word : m.row(r)) {
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(word.raw())));
      }
    }
  }
  /// Drops what the values digest has mixed so far.
  void restart_values() noexcept { values_ = kFnv1aOffset; }
  [[nodiscard]] std::uint64_t device() const noexcept { return device_; }
  [[nodiscard]] std::uint64_t values() const noexcept { return values_; }

 private:
  std::uint64_t device_ = kFnv1aOffset;
  std::uint64_t values_ = kFnv1aOffset;
};

Fingerprint fingerprint_device(const AccelConfig& config,
                               const DeviceProgram& program) noexcept {
  Fingerprint fp;
  fp.mix(config.clock_hz);
  fp.mix(config.timing.lane_width);
  fp.mix(config.timing.exp_latency);
  fp.mix(config.timing.exp_ii);
  fp.mix(config.timing.div_latency);
  fp.mix(config.timing.div_ii);
  fp.mix(config.timing.bram_write);
  fp.mix(config.fifo_depth);
  fp.mix(config.link.words_per_second);
  fp.mix(config.link.model_words_per_second);
  fp.mix(config.link.per_story_latency);
  fp.mix(config.link.result_latency);
  fp.mix(config.link.synchronous_stories);
  fp.restart_values();  // the value pass reads none of the above
  fp.mix(config.sparse_read_slots);
  fp.mix(config.ith_enabled);

  fp.mix(program.vocab_size);
  fp.mix(program.embedding_dim);
  fp.mix(program.hops);
  fp.mix(program.max_memory);
  fp.mix_matrix(program.emb_a);
  fp.mix_matrix(program.emb_c);
  fp.mix_matrix(program.emb_q);
  fp.mix_matrix(program.w_r);
  fp.mix_matrix(program.w_o);
  fp.mix(program.thresholds.size());
  for (const Fx t : program.thresholds) {
    fp.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.raw())));
  }
  fp.mix(program.probe_order.size());
  for (const std::int32_t c : program.probe_order) {
    fp.mix(static_cast<std::uint64_t>(c));
  }
  return fp;
}

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::invalid_argument(std::string("Accelerator: ") + what);
  }
}

/// Refuses a program the modules would index out of bounds: every
/// table a story or a class probe reads must have the shape the
/// dimensions promise.
void validate_program(const DeviceProgram& program) {
  const std::size_t v = program.vocab_size;
  const std::size_t e = program.embedding_dim;
  require(v >= 1, "vocab_size must be at least 1");
  require(e >= 1, "embedding_dim must be at least 1");
  require(program.hops >= 1, "hops must be at least 1");
  require(program.max_memory >= 1, "max_memory must be at least 1");
  for (const FxMatrix* m : {&program.emb_a, &program.emb_c, &program.emb_q,
                            &program.w_o}) {
    require(m->rows() == v && m->cols() == e,
            "embedding tables and W_o must be vocab_size x embedding_dim");
  }
  require(program.w_r.rows() == e && program.w_r.cols() == e,
          "W_r must be embedding_dim x embedding_dim");
  if (program.thresholds.empty() && program.probe_order.empty()) {
    return;
  }
  require(program.thresholds.size() == v,
          "ITH thresholds must have vocab_size entries");
  require(program.probe_order.size() == v,
          "ITH probe_order must have vocab_size entries");
  std::vector<bool> seen(v, false);
  for (const std::int32_t cls : program.probe_order) {
    require(cls >= 0 && static_cast<std::size_t>(cls) < v &&
                !seen[static_cast<std::size_t>(cls)],
            "ITH probe_order must be a permutation of the classes");
    seen[static_cast<std::size_t>(cls)] = true;
  }
}

/// Refuses a story with a word id the embedding tables cannot index.
void validate_stories(std::span<const data::EncodedStory* const> stories,
                      std::size_t vocab_size) {
  const auto vocab = static_cast<std::int64_t>(vocab_size);
  const auto check = [&](std::size_t story, std::int32_t word) {
    if (word < 0 || word >= vocab) {
      throw std::invalid_argument(
          "Accelerator: story " + std::to_string(story) + " holds word id " +
          std::to_string(word) + ", outside the vocabulary [0, " +
          std::to_string(vocab) + ")");
    }
  };
  for (std::size_t i = 0; i < stories.size(); ++i) {
    for (const std::vector<std::int32_t>& sentence : stories[i]->context) {
      for (const std::int32_t word : sentence) {
        check(i, word);
      }
    }
    for (const std::int32_t word : stories[i]->question) {
      check(i, word);
    }
  }
}

}  // namespace

void validate_config(const AccelConfig& config) {
  constexpr double kMaxWhole = 9007199254740992.0;  // 2^53
  // Each test is false for NaN.
  const auto whole = [&](double x, double least) {
    return x >= least && x <= kMaxWhole && x == std::floor(x);
  };
  const auto cycles = [&](double seconds) {
    return seconds >= 0.0 && seconds * config.clock_hz <= kMaxWhole;
  };
  require(whole(config.clock_hz, 1.0),
          "clock_hz must be a whole number of Hz in [1, 2^53]");
  require(whole(config.link.words_per_second, 1.0),
          "link.words_per_second must be a whole number in [1, 2^53]");
  require(whole(config.link.model_words_per_second, 0.0),
          "link.model_words_per_second must be a whole number in [0, 2^53]");
  require(cycles(config.link.per_story_latency),
          "link.per_story_latency must be 0 to 2^53 cycles");
  require(cycles(config.link.result_latency),
          "link.result_latency must be 0 to 2^53 cycles");
  require(config.timing.lane_width >= 1,
          "timing.lane_width must be at least 1");
  require(config.fifo_depth >= 1, "fifo_depth must be at least 1");
}

std::vector<StoryValues> Accelerator::story_values(
    std::span<const data::EncodedStory* const> stories,
    ServiceCycleCache* cache,
    std::span<const std::uint64_t> story_digests) const {
  validate_stories(stories, program_.vocab_size);
  std::vector<StoryValues> values(stories.size());
  std::optional<Datapath> datapath;  // built at the first story computed
  for (std::size_t i = 0; i < stories.size(); ++i) {
    if (cache != nullptr) {
      if (const std::optional<StoryValues> hit =
              cache->find_story({values_fingerprint_, story_digests[i]})) {
        values[i] = *hit;
        continue;
      }
    }
    if (!datapath) {
      datapath.emplace(program_, config_, tables_);
    }
    values[i] = datapath->run(*stories[i]);
    if (cache != nullptr) {
      cache->publish_story({values_fingerprint_, story_digests[i]},
                           values[i]);
    }
  }
  return values;
}

RunResult Accelerator::simulate(
    std::span<const data::EncodedStory* const> stories,
    std::span<const StoryValues> values, bool model_resident,
    bool per_cycle) const {
  AcceleratorState state(program_);
  if (model_resident) {
    // Warm device: BRAM already holds this program; the stream carries no
    // model words and CONTROL must accept stories immediately.
    state.model_words_seen = program_.model_words();
    state.model_loaded = true;
  }
  sim::Fifo<StreamWord> fifo_in("FIFO_IN", config_.fifo_depth);
  sim::Fifo<std::int32_t> fifo_out("FIFO_OUT", config_.fifo_depth);
  sim::Fifo<StreamWord> cmd_fifo("CMD_FIFO", config_.fifo_depth);

  HostLinkModule host(config_, model_resident ? 0 : program_.model_words(),
                      encode_workload(stories), fifo_in, fifo_out);
  // CONTROL drains FIFO_IN right after HOST_LINK ticks and INPUT&WRITE
  // drains CMD_FIFO right after CONTROL: the coupled chain, which skips a
  // model upload and a story's data words as one event each.
  ControlModule control(state, fifo_in, cmd_fifo, &host);
  InputWriteModule input_write(state, config_, cmd_fifo, &control);
  MemModule mem(state, config_);
  ReadModule read(state, config_);
  OutputModule output(state, config_, fifo_out, values);

  sim::Simulator simulator;
  const std::size_t expected = stories.size();
  const auto answered = [&] { return host.answers().size() >= expected; };
  // Producer-to-consumer order along the write path, then the read path.
  if (per_cycle) {
    (void)simulator.run_until(answered, config_.watchdog_cycles, host,
                              control, input_write, read, mem, output);
  } else {
    (void)simulator.run_events(answered, config_.watchdog_cycles,
                               sim::kNever, host, control, input_write, read,
                               mem, output);
  }

  RunResult result;
  result.total_cycles = simulator.now();
  result.seconds = static_cast<double>(result.total_cycles) / config_.clock_hz;
  result.stream_words = host.words_total();
  result.link_active_cycles = host.link_active_cycles();

  if (host.answers().size() != expected) {
    throw std::logic_error("Accelerator: answer count mismatch");
  }
  result.stories.reserve(expected);
  for (std::size_t i = 0; i < expected; ++i) {
    StoryOutcome outcome;
    outcome.prediction = values[i].prediction;
    outcome.output_probes = values[i].output_probes;
    outcome.early_exit = values[i].early_exit;
    outcome.finish_cycle = host.answers()[i].cycle;
    result.stories.push_back(outcome);
  }

  const std::array<const sim::Module*, 6> all_modules = {
      &host, &control, &input_write, &read, &mem, &output};
  for (const sim::Module* m : all_modules) {
    result.modules.push_back({m->name(), m->stats()});
    result.total_ops += m->stats().ops;
  }
  result.fifo_in_stats = fifo_in.stats();
  result.fifo_out_stats = fifo_out.stats();
  return result;
}

double RunResult::early_exit_rate() const noexcept {
  if (stories.empty()) {
    return 0.0;
  }
  std::size_t exits = 0;
  for (const StoryOutcome& s : stories) {
    exits += s.early_exit ? 1 : 0;
  }
  return static_cast<double>(exits) / static_cast<double>(stories.size());
}

double RunResult::mean_output_probes() const noexcept {
  if (stories.empty()) {
    return 0.0;
  }
  std::uint64_t probes = 0;
  for (const StoryOutcome& s : stories) {
    probes += s.output_probes;
  }
  return static_cast<double>(probes) / static_cast<double>(stories.size());
}

Accelerator::Accelerator(AccelConfig config, DeviceProgram program)
    : config_(config), program_(std::move(program)) {
  validate_config(config_);
  if (config_.ith_enabled && !program_.has_ith_tables()) {
    throw std::invalid_argument(
        "Accelerator: ITH enabled but the program has no threshold tables");
  }
  validate_program(program_);
  tables_ = DatapathTables(program_, config_);
  const Fingerprint fp = fingerprint_device(config_, program_);
  fingerprint_ = fp.device();
  values_fingerprint_ = fp.values();
}

sim::FifoStats RunResult::queue_stats() const noexcept {
  sim::FifoStats combined = fifo_in_stats;
  combined += fifo_out_stats;
  return combined;
}

RunResult Accelerator::run(std::span<const data::EncodedStory> stories,
                           const RunOptions& options) const {
  return run(story_pointers(stories), options);
}

RunResult Accelerator::run(std::span<const data::EncodedStory* const> stories,
                           const RunOptions& options) const {
  if (options.cache_outcome != nullptr) {
    *options.cache_outcome = CacheOutcome::kNone;
  }
  ServiceCycleCache* const cache = options.cycle_cache;
  if (cache == nullptr) {
    return simulate(stories, story_values(stories, nullptr, {}),
                    options.model_resident, /*per_cycle=*/false);
  }
  std::vector<std::uint64_t> story_digests(stories.size());
  const ServiceCycleCache::Key key{fingerprint_,
                                   digest_stories(stories, story_digests),
                                   stories.size(), options.model_resident};
  if (std::optional<RunResult> hit =
          cache->acquire(key, options.cache_outcome)) {
    // Timing replay: the memoized result is bit-identical to what
    // re-simulation would produce — the key covers every input the
    // simulation depends on — so the whole run collapses to this copy.
    // Its stories passed validate_stories when it was simulated.
    return std::move(*hit);
  }
  try {
    RunResult result =
        simulate(stories, story_values(stories, cache, story_digests),
                 options.model_resident, /*per_cycle=*/false);
    cache->publish(key, result);
    return result;
  } catch (...) {
    cache->abandon(key);
    throw;
  }
}

namespace detail {

RunResult simulate_per_cycle(const Accelerator& device,
                             std::span<const data::EncodedStory> stories,
                             bool model_resident) {
  const std::vector<const data::EncodedStory*> pointers =
      story_pointers(stories);
  return device.simulate(pointers, device.story_values(pointers, nullptr, {}),
                         model_resident, /*per_cycle=*/true);
}

}  // namespace detail

}  // namespace mann::accel
