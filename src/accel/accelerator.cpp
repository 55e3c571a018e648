#include "accel/accelerator.hpp"

#include <array>
#include <bit>
#include <functional>
#include <stdexcept>

#include "accel/control.hpp"
#include "accel/host_link.hpp"
#include "accel/input_write.hpp"
#include "accel/mem_module.hpp"
#include "accel/output_module.hpp"
#include "accel/read_module.hpp"
#include "accel/service_cycle_cache.hpp"
#include "accel/state.hpp"
#include "sim/simulator.hpp"

namespace mann::accel {

namespace {

// FNV-1a (the cache's shared mixer) over the timing-relevant device
// identity (config + program). Everything the simulation's timing or
// outputs can depend on is mixed in; watchdog_cycles is deliberately
// excluded (it only bounds runaway simulations — expiry throws, so a
// watchdog difference can never publish a differing result).
class Fingerprint {
 public:
  void mix(std::uint64_t word) noexcept { h_ = fnv1a_mix(h_, word); }
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
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnv1aOffset;
};

std::uint64_t fingerprint_device(const AccelConfig& config,
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
  fp.mix(config.sparse_read_slots);
  fp.mix(config.ith_enabled);
  fp.mix(config.use_index_ordering);

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
  return fp.value();
}

/// One of Simulator's clock loops (run_events or run_until).
using ClockLoop = sim::Cycle (sim::Simulator::*)(const std::function<bool()>&,
                                                 sim::Cycle);

/// Builds the device's module graph, clocks it with `loop` until every
/// story's answer has reached the host, and assembles the report.
RunResult simulate_graph(const AccelConfig& config,
                         const DeviceProgram& program,
                         std::span<const data::EncodedStory> stories,
                         bool model_resident, ClockLoop loop) {
  AcceleratorState state(program);
  if (model_resident) {
    // Warm device: BRAM already holds this program; the stream carries no
    // model words and CONTROL must accept stories immediately.
    state.model_words_seen = program.model_words();
    state.model_loaded = true;
  }
  sim::Fifo<StreamWord> fifo_in("FIFO_IN", config.fifo_depth);
  sim::Fifo<std::int32_t> fifo_out("FIFO_OUT", config.fifo_depth);
  sim::Fifo<InputCmd> cmd_fifo("CMD_FIFO", config.fifo_depth);

  HostLinkModule host(config, model_resident ? 0 : program.model_words(),
                      encode_workload(stories), fifo_in, fifo_out);
  // CONTROL drains FIFO_IN right after HOST_LINK ticks, which lets the
  // two skip a steady model upload together.
  ControlModule control(state, fifo_in, cmd_fifo, &host);
  InputWriteModule input_write(state, config, cmd_fifo);
  MemModule mem(state, config);
  ReadModule read(state, config);
  OutputModule output(state, config, fifo_out);

  sim::Simulator simulator;
  // Producer-to-consumer order along the write path, then the read path.
  simulator.add_module(host);
  simulator.add_module(control);
  simulator.add_module(input_write);
  simulator.add_module(read);
  simulator.add_module(mem);
  simulator.add_module(output);

  const std::size_t expected = stories.size();
  (simulator.*loop)([&] { return host.answers().size() >= expected; },
                    config.watchdog_cycles);

  RunResult result;
  result.total_cycles = simulator.now();
  result.seconds = static_cast<double>(result.total_cycles) / config.clock_hz;
  result.stream_words = host.words_total();
  result.link_active_cycles = host.link_active_cycles();

  const auto& records = output.records();
  if (records.size() != expected || host.answers().size() != expected) {
    throw std::logic_error("Accelerator: record/answer count mismatch");
  }
  result.stories.reserve(expected);
  for (std::size_t i = 0; i < expected; ++i) {
    StoryOutcome outcome;
    outcome.prediction = records[i].prediction;
    outcome.output_probes = records[i].probes;
    outcome.early_exit = records[i].early_exit;
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

}  // namespace

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
  if (config_.clock_hz <= 0.0) {
    throw std::invalid_argument("Accelerator: clock must be positive");
  }
  if (config_.ith_enabled && !program_.has_ith_tables()) {
    throw std::invalid_argument(
        "Accelerator: ITH enabled but the program has no threshold tables");
  }
  fingerprint_ = fingerprint_device(config_, program_);
}

sim::FifoStats RunResult::queue_stats() const noexcept {
  sim::FifoStats combined = fifo_in_stats;
  combined += fifo_out_stats;
  return combined;
}

RunResult Accelerator::run(std::span<const data::EncodedStory> stories,
                           const RunOptions& options) const {
  ServiceCycleCache::Key key;
  if (options.cache_outcome != nullptr) {
    *options.cache_outcome = CacheOutcome::kNone;
  }
  if (options.cycle_cache != nullptr) {
    key = {fingerprint_, digest_stories(stories), stories.size(),
           options.model_resident};
    if (std::optional<RunResult> hit =
            options.cycle_cache->acquire(key, options.cache_outcome)) {
      // Timing replay: the memoized result is bit-identical to what
      // re-simulation would produce — the key covers every input the
      // simulation depends on — so the whole run collapses to this copy.
      return std::move(*hit);
    }
  }
  try {
    RunResult result = simulate(stories, options);
    if (options.cycle_cache != nullptr) {
      options.cycle_cache->publish(key, result);
    }
    return result;
  } catch (...) {
    if (options.cycle_cache != nullptr) {
      options.cycle_cache->abandon(key);
    }
    throw;
  }
}

RunResult Accelerator::simulate(std::span<const data::EncodedStory> stories,
                                const RunOptions& options) const {
  return simulate_graph(config_, program_, stories, options.model_resident,
                        &sim::Simulator::run_events);
}

namespace detail {

RunResult simulate_per_cycle(const Accelerator& device,
                             std::span<const data::EncodedStory> stories,
                             bool model_resident) {
  return simulate_graph(device.config(), device.program(), stories,
                        model_resident, &sim::Simulator::run_until);
}

}  // namespace detail

}  // namespace mann::accel
