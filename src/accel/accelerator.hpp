// Top-level accelerator: wires the host link, FIFOs and the five modules
// of Fig. 1 together and runs a workload to completion. A synchronous
// run's time comes in closed form, one fold over its stories; any other
// run ticks the module graph every cycle (detail::simulate_per_cycle,
// the reference the fold is held to).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/config.hpp"
#include "accel/datapath.hpp"
#include "data/types.hpp"
#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace mann::accel {

/// One story's outcome as observed at the host.
struct StoryOutcome {
  std::int32_t prediction = -1;
  std::uint64_t output_probes = 0;  ///< output-layer dot products
  bool early_exit = false;          ///< an ITH threshold fired
  sim::Cycle finish_cycle = 0;      ///< host-side completion time
};

/// Per-module activity snapshot.
struct ModuleReport {
  std::string name;
  sim::ModuleStats stats;
};

/// Full result of one workload run.
struct RunResult {
  std::vector<StoryOutcome> stories;
  sim::Cycle total_cycles = 0;
  double seconds = 0.0;  ///< wall time at the configured clock
  std::vector<ModuleReport> modules;
  sim::OpCounts total_ops;
  sim::FifoStats fifo_in_stats;
  sim::FifoStats fifo_out_stats;
  sim::Cycle link_active_cycles = 0;  ///< I/O-occupied cycles
  std::size_t stream_words = 0;

  /// Convenience: fraction of stories that early-exited.
  [[nodiscard]] double early_exit_rate() const noexcept;
  /// Mean output probes per story.
  [[nodiscard]] double mean_output_probes() const noexcept;
  /// Aggregate host-facing queue stats (FIFO_IN + FIFO_OUT) — the same
  /// FifoStats code path the serving metrics and the fifo-depth ablation
  /// introspect.
  [[nodiscard]] sim::FifoStats queue_stats() const noexcept;
};

class ServiceCycleCache;

/// How a run() resolved against the service-cycle cache. kWait means the
/// result was correct-and-cached but only after blocking on another
/// thread's in-flight simulation — the latency profile of a miss, the
/// work profile of a hit — so accounting keeps it distinct from both.
enum class CacheOutcome : std::uint8_t {
  kNone,  ///< no cache configured for this run
  kHit,   ///< immediately resident
  kWait,  ///< resolved by an in-flight simulation we blocked on
  kMiss,  ///< this run simulated (and published)
};

[[nodiscard]] constexpr const char* cache_outcome_name(
    CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::kNone:
      return "none";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kWait:
      return "wait";
    case CacheOutcome::kMiss:
      return "miss";
  }
  return "?";
}

/// Per-run options.
struct RunOptions {
  /// The trained model is already resident in device BRAM (a previous
  /// run() uploaded it), so the model-load phase of the stream is
  /// skipped. The serving runtime uses this to amortise the upload
  /// across batches dispatched to a warm device; the default models a
  /// fresh power-on (model upload + inference stream, the paper's
  /// measurement protocol, which includes model transmission).
  bool model_resident = false;
  /// When set, run() memoizes through this cache: a previously simulated
  /// (program, stories, resident) workload replays its cached
  /// timing/output instead of re-simulating — bit-identical, since the
  /// cache key covers every input the simulation depends on. A workload
  /// that misses takes each story's values from the cache's story
  /// entries and computes only the stories it lacks. Non-owning; the
  /// cache may be shared across devices and host threads.
  ServiceCycleCache* cycle_cache = nullptr;
  /// When non-null, run() reports how the lookup resolved (kNone when no
  /// cycle_cache is set). Observability only — never affects the result.
  CacheOutcome* cache_outcome = nullptr;
};

class Accelerator;

namespace detail {

/// The reference clock: the module graph of Fig. 1 ticked on every cycle
/// by Simulator::run_until, over every story's values from the value
/// pass. Accelerator::run gives the same RunResult, in closed form where
/// takes_closed_form() holds. Uncached; not a serving path.
[[nodiscard]] RunResult simulate_per_cycle(
    const Accelerator& device, std::span<const data::EncodedStory> stories,
    bool model_resident);

/// Whether Accelerator::run times a run of `device` at this residency in
/// closed form rather than ticking every cycle: with a synchronous host,
/// ⌊clock_hz / words_per_second⌋ above bram_write and, on a cold run, a
/// first kStoryStart that lands after CONTROL has stored the last model
/// word. For the differential tests, which count the cases it covers.
[[nodiscard]] bool takes_closed_form(const Accelerator& device,
                                     bool model_resident);

}  // namespace detail

/// The device. Holds no mutable state between run() calls — warm-device
/// behaviour is expressed per run via RunOptions::model_resident, so the
/// same instance can serve many batches (the serving scheduler tracks
/// which program each pool device last uploaded).
///
/// Thread safety: run() is const and builds all simulation state on its
/// own stack, so concurrent run() calls on one instance (or on instances
/// sharing a program image) are safe — the serving worker pool executes
/// device slots on separate host threads against the same Accelerator.
class Accelerator {
 public:
  /// Throws std::invalid_argument on a config validate_config refuses, on
  /// ITH without threshold tables, and on a program validate_program
  /// refuses (compiler.hpp), which building the DatapathTables checks.
  Accelerator(AccelConfig config, DeviceProgram program);

  [[nodiscard]] const AccelConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DeviceProgram& program() const noexcept {
    return program_;
  }

  /// Digest of everything timing-relevant about this device (config
  /// knobs + program contents): the service-cycle cache's program key.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Streams `stories` through the device and returns the full report.
  /// Builds one array of pointers to the stories and runs the overload
  /// below on it. Throws std::invalid_argument, before anything is
  /// simulated or memoized, when a story holds a word id outside
  /// [0, vocab_size).
  [[nodiscard]] RunResult run(std::span<const data::EncodedStory> stories,
                              const RunOptions& options = {}) const;

  /// The same run over borrowed stories, in pointer order: nothing is
  /// copied, so every story must outlive the call. The serving scheduler
  /// passes pointers into its corpus, which outlives every dispatch and
  /// every speculative run. The cycle cache keys on the stories'
  /// contents, never their addresses, so both overloads share entries.
  [[nodiscard]] RunResult run(
      std::span<const data::EncodedStory* const> stories,
      const RunOptions& options = {}) const;

 private:
  /// The value pass over every story, in order, once every word id has
  /// been checked against the vocabulary (std::invalid_argument). With a
  /// cache, a story found under (values_fingerprint_, story_digests[i])
  /// is not recomputed, and one computed here is published.
  [[nodiscard]] std::vector<StoryValues> story_values(
      std::span<const data::EncodedStory* const> stories,
      ServiceCycleCache* cache,
      std::span<const std::uint64_t> story_digests) const;

  /// The timing pass over the stories' values: the closed form of a
  /// synchronous run (accelerator.cpp) unless `per_cycle` or the run is
  /// outside its domain; otherwise the module graph over this device's
  /// program, ticked to completion on Simulator::run_until.
  [[nodiscard]] RunResult simulate(
      std::span<const data::EncodedStory* const> stories,
      std::span<const StoryValues> values, bool model_resident,
      bool per_cycle) const;

  AccelConfig config_;
  DeviceProgram program_;
  DatapathTables tables_;  ///< built once; every run's Datapath borrows it
  std::uint64_t fingerprint_ = 0;
  /// Digest of what the value pass reads (the program, sparse_read_slots
  /// and ITH): the story entries' key, shared by devices that differ
  /// only in clock, link or timing.
  std::uint64_t values_fingerprint_ = 0;

  friend RunResult detail::simulate_per_cycle(
      const Accelerator& device, std::span<const data::EncodedStory> stories,
      bool model_resident);
};

}  // namespace mann::accel
