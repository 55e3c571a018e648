// The serving runtime's configuration: the models it serves and the
// ServerConfig that shapes admission -> batcher -> scheduler -> device
// pool, advanced by the shared sim::Simulator clock.
//
// The control plane is three explicit stages with tenant identity
// threaded end-to-end:
//
//   admission  (serve::AdmissionController — per-tenant quotas, tiered
//               overload shedding, doom shedding against the scheduler's
//               cost model; owns the unified ShedReason accounting)
//   queueing   (serve::Batcher — per-(task, tenant) lanes)
//   dispatch   (serve::Scheduler — FIFO / EDF / tenant-WFQ policies)
//
// Each stage is a sim::Module ticked in dataflow order; the loop runs on
// Simulator::run_events, so stretches where nothing moves (waiting for
// the next arrival, devices grinding through a batch) are skipped in one
// jump while remaining cycle-exact at every decision point. This is the
// first consumer of accel::Accelerator that is not a one-shot experiment:
// devices stay warm across batches via RunOptions::model_resident.
//
// serve::ServerSession (serve/session.hpp) runs the stack: an outside
// driver (tools/mann_served, mann::cluster, a test harness) submits
// arrivals, advances the clock in bounded steps, drains resolved
// requests as serve::Completion records, and reconfigures
// tenants/SLOs/policy mid-run. serve::run() in the same header is the
// closed loop: it serves n generated requests to completion and reports.
#pragma once

#include <cstddef>
#include <span>

#include "accel/accelerator.hpp"
#include "accel/compiler.hpp"
#include "data/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/power_model.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/tenant.hpp"
#include "sim/types.hpp"

namespace mann::serve {

/// One deployable model: its compiled device program plus the corpus of
/// encodable questions traffic is drawn from (non-owning).
struct ServedModel {
  accel::DeviceProgram program;
  std::span<const data::EncodedStory> stories;
};

struct ServerConfig {
  accel::AccelConfig accel;  ///< per-device config (clock, FIFOs, ITH…)
  /// Arrival process, per-task SLO deadlines (traffic.slo), the tenant
  /// registry (traffic.tenants — shared by every control-plane stage)
  /// and — for trace replay — the recorded schedule.
  TrafficConfig traffic;
  /// Admission policy knobs (quota enforcement, doom/overload shedding).
  /// The default is transparent: nothing is shed except full queues.
  AdmissionConfig admission;
  BatcherConfig batcher;
  /// Dispatch policy (EDF/FIFO/WFQ), the device pool and the
  /// host-parallel execution knobs. Under kWfq the scheduler weighs
  /// tenants by the session's live registry (traffic.tenants, then
  /// set_tenant).
  SchedulerConfig scheduler;
  /// Board power model folded into the report's serving-energy figures.
  power::FpgaPowerConfig power;
  /// Serving-level watchdog (independent of the per-batch accel watchdog).
  sim::Cycle watchdog_cycles = 20'000'000'000ULL;
  /// Observability sinks (non-owning, both optional; null is the
  /// off-switch, one check per record site). `metrics` receives every
  /// control-plane stage's instruments; `trace` receives per-request
  /// lifecycle spans plus device/worker occupancy, exportable via
  /// obs::write_chrome_trace().
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

}  // namespace mann::serve
