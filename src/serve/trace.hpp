// Trace-driven traffic: recorded arrival schedules for exact replay.
//
// A trace is the serving workload stripped to what matters for queueing:
// when each request arrived, which task it asked for, and (since the
// multi-tenant control plane) which tenant it belonged to. The CSV form
// is the interchange format between the trace generator tool, recorded
// sample traces checked into bench/traces/, and the TrafficGenerator's
// replay mode — so a production-shaped arrival pattern can be captured
// once and re-served deterministically under any scheduler/pool/tenant
// configuration.
//
// The format is versioned by its header row:
//   v1: `arrival_cycle,task_id`            (tenant defaults to 0)
//   v2: `arrival_cycle,task_id,tenant_id`
// The loader accepts both (per row, so headerless v1 traces keep
// loading); the writer always emits v2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/tenant.hpp"
#include "sim/types.hpp"

namespace mann::serve {

/// One recorded arrival: the serving-clock cycle it hit the frontend,
/// the served task it addressed (index into the model registry), and
/// the tenant it belonged to (0 when recorded without tenants).
struct TraceEntry {
  sim::Cycle arrival_cycle = 0;
  std::size_t task = 0;
  TenantId tenant = 0;

  [[nodiscard]] bool operator==(const TraceEntry&) const noexcept = default;
};

/// The one rule for every count a trace row, a tool flag or a daemon
/// command carries: plain decimal digits that fit in 64 bits. A sign,
/// whitespace, a trailing non-digit or an overflow yields nullopt
/// (strtoull would take "-1" as 2^64-1 and saturate an overflow).
[[nodiscard]] std::optional<std::uint64_t> parse_digits(
    std::string_view text);

/// Parses a trace CSV (either versioned header row, blank lines and `#`
/// comments ignored; rows may be 2-column v1 or 3-column v2). Throws
/// std::runtime_error on unreadable files, malformed rows, or arrival
/// cycles that go backwards — a trace is an arrival schedule, so time
/// must be non-decreasing.
[[nodiscard]] std::vector<TraceEntry> load_trace_csv(const std::string& path);

/// Writes `entries` as the canonical v2 CSV (with header). Throws
/// std::runtime_error when the file cannot be written.
void save_trace_csv(const std::string& path,
                    const std::vector<TraceEntry>& entries);

/// Amplifies a trace `factor`x without changing its shape: every original
/// row is kept and (factor - 1) replicas are added, each offset by a
/// deterministic (seeded) jitter within the row's local inter-arrival
/// gap — so the diurnal envelope, bursts and tenant/task mix survive at
/// factor-times the request volume, and a 10-100x cluster sweep can
/// replay the committed sample traces instead of needing multi-MB
/// recordings. factor == 0 is treated as 1 (identity); the result is
/// arrival-sorted and valid for save_trace_csv / replay.
[[nodiscard]] std::vector<TraceEntry> scale_trace(
    const std::vector<TraceEntry>& entries, std::size_t factor,
    std::uint64_t seed = 2019);

}  // namespace mann::serve
