// Accelerator configuration: clock, datapath timing, FIFO sizing, and the
// host-link model. One struct so benches can sweep any dimension.
#pragma once

#include <cstddef>

#include "sim/timing.hpp"

namespace mann::accel {

/// Host <-> FPGA link model (the PCIe path of Fig. 1).
///
/// Wall-clock throughput and latency are clock-independent (PCIe does not
/// care about the fabric clock); the simulator converts them to cycles at
/// the configured frequency. Link rates are whole numbers of words/s up
/// to 2^53, so the link's credit is exact (validate_config). The default
/// effective throughput is low compared to PCIe bulk bandwidth on purpose:
/// the stream is word-granular writes driven by the host runtime, and the
/// paper's own measurement shows the interface dominating at high clocks
/// (§V: "inference time is dominated by the interface between the host
/// and the FPGA").
struct HostLinkConfig {
  /// Effective rate of the word-granular inference stream. Calibrated to
  /// the paper's frequency sweep: Table I solves to a clock-independent
  /// I/O term of ~13 us per story (~47 words), i.e. ~4 Mwords/s — far
  /// below PCIe bulk bandwidth because each word is a host-driven write.
  double words_per_second = 4.0e6;
  /// The trained model is one large buffer and goes through bulk DMA at
  /// full link bandwidth instead of the word-granular path.
  double model_words_per_second = 2.0e8;
  double per_story_latency = 2.0e-6; ///< DMA/doorbell setup per story (s)
  double result_latency = 1.0e-6;    ///< readback latency per answer (s)
  /// Request/response host runtime: the next story is not streamed until
  /// the previous answer arrived. This reproduces the paper's additive
  /// time structure t = T_io + C_cycles/f (their Table I frequency sweep
  /// solves to a clock-independent I/O term plus compute cycles, which
  /// only happens when transfer and compute do not overlap).
  bool synchronous_stories = true;
};

/// Full device configuration.
struct AccelConfig {
  /// Fabric clock (paper sweeps 25-100 MHz): a whole number of Hz up to
  /// 2^53.
  double clock_hz = 100.0e6;
  sim::DatapathTiming timing; ///< arithmetic-unit cycle costs
  std::size_t fifo_depth = 32;
  HostLinkConfig link;

  /// Sparse memory reads (§VI-B, sparse access memory): the MEM module
  /// still scores every slot, but runs the exp/divide/weighted-read
  /// pipeline over only the best `sparse_read_slots` slots. 0 = dense.
  std::size_t sparse_read_slots = 0;

  /// Inference thresholding (Algo. 1 Step 4) in the OUTPUT module, which
  /// then probes classes in the program's silhouette order (Step 3).
  bool ith_enabled = false;

  /// Watchdog: simulation aborts if one workload exceeds this many cycles.
  sim::Cycle watchdog_cycles = 500'000'000;
};

/// Throws std::invalid_argument for a config no run could finish
/// correctly: a clock or word rate that is not a whole number in
/// [1, 2^53] (a model rate may also be 0, which stalls the upload), a
/// latency that is negative, not finite or over 2^53 cycles, a zero lane
/// width or a zero FIFO depth. The Accelerator and LinkTiming
/// constructors call it.
void validate_config(const AccelConfig& config);

}  // namespace mann::accel
