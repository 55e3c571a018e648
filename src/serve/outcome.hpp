// The unified request-outcome vocabulary of the incremental serving API.
//
// Two per-layer encodings describe how a request left the system: the
// admission/batcher layers speak ShedReason, and "did it complete, and in
// time?" is implicit in InferenceResponse::deadline_met(). The session
// API (ServerSession::poll_completions) surfaces one public enum instead:
// every request resolves to exactly one RequestOutcome, and the
// conversion helpers below are the single place the layer encodings map
// through.
//
// Determinism note: RequestOutcome is a pure function of the simulated
// timeline, so the completion stream is bit-identical for any host worker
// count. How the host resolved a dispatch against the service-cycle cache
// depends on the worker count, so it stays out of the completion stream:
// only the host-domain "cache" trace instant records it.
#pragma once

#include <cstdint>

#include "serve/request.hpp"
#include "serve/tenant.hpp"
#include "sim/types.hpp"

namespace mann::serve {

/// How a request left the serving stack. Exactly one per request.
enum class RequestOutcome : std::uint8_t {
  kOk = 0,        ///< completed within its deadline (or carried none)
  kLate,          ///< completed after its deadline (SLO violation)
  kShedQueueFull, ///< refused: batcher pending lane was full
  kShedQuota,     ///< refused: tenant token bucket was empty
  kShedDoomed,    ///< refused: deadline unmeetable per the cost model
  kShedOverload,  ///< refused: tiered load shedding above the watermark
};

inline constexpr std::size_t kRequestOutcomeCount = 6;

[[nodiscard]] constexpr bool outcome_is_shed(RequestOutcome o) noexcept {
  return o >= RequestOutcome::kShedQueueFull;
}

[[nodiscard]] constexpr bool outcome_is_completion(
    RequestOutcome o) noexcept {
  return !outcome_is_shed(o);
}

/// ShedReason -> RequestOutcome (the admission layer's encoding mapped
/// into the public vocabulary).
[[nodiscard]] constexpr RequestOutcome outcome_from_shed(
    ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::kQueueFull:
      return RequestOutcome::kShedQueueFull;
    case ShedReason::kQuota:
      return RequestOutcome::kShedQuota;
    case ShedReason::kDoomed:
      return RequestOutcome::kShedDoomed;
    case ShedReason::kOverload:
      return RequestOutcome::kShedOverload;
  }
  return RequestOutcome::kShedQueueFull;
}

/// Completion classification of an answered request.
[[nodiscard]] inline RequestOutcome outcome_from_response(
    const InferenceResponse& response) noexcept {
  return response.has_deadline() && !response.deadline_met()
             ? RequestOutcome::kLate
             : RequestOutcome::kOk;
}

[[nodiscard]] constexpr const char* request_outcome_name(
    RequestOutcome o) noexcept {
  switch (o) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kLate:
      return "late";
    case RequestOutcome::kShedQueueFull:
      return "shed_queue_full";
    case RequestOutcome::kShedQuota:
      return "shed_quota";
    case RequestOutcome::kShedDoomed:
      return "shed_doomed";
    case RequestOutcome::kShedOverload:
      return "shed_overload";
  }
  return "unknown";
}

/// One resolved request, surfaced by ServerSession::poll_completions().
/// Sheds surface here too (with a partially filled response: id, task,
/// tenant, enqueue_cycle and deadline_cycle are meaningful), so the
/// completion stream is the *complete* per-request ledger — exactly one
/// Completion per offered request.
struct Completion {
  RequestOutcome outcome = RequestOutcome::kOk;
  /// Simulated cycle the outcome landed: complete_cycle for completions,
  /// the shed decision cycle for sheds. poll_completions() orders its
  /// window by (cycle, id), and windows are drained at non-decreasing
  /// clock values, so the concatenated stream is globally sorted and
  /// deterministic.
  sim::Cycle cycle = 0;
  InferenceResponse response;
};

}  // namespace mann::serve
