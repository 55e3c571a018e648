// In-memory host-time spans around the driver's calls into each layer.
//
// A span records its name, start, end, parent (the span open when it
// began) and the rep it belongs to; everything stays in memory and is
// written once, as Chrome trace-event JSON, when the driver exits. The
// names carry the layer as their prefix ("serve.submit", "accel.run"),
// which is what ledger.py groups self time by.
//
// A disabled Tracer records nothing: every Scope costs one branch, so the
// untraced runs that produce the end-to-end numbers are not instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mann::e2e {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Rep id stamped on spans opened from now on (-1 = set-up).
  void set_rep(std::int64_t rep) noexcept { rep_ = rep; }

  /// Opens a span; `name` must have static storage.
  [[nodiscard]] std::size_t open(const char* name);
  void close(std::size_t index);

  /// Writes every span as Chrome trace-event JSON; `extra` is spliced in
  /// verbatim as further top-level members (a JSON fragment starting
  /// with a comma, or empty). False when the file cannot be written.
  bool write(const std::string& path, const std::string& extra) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t parent = -1;
    std::int64_t rep = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  bool enabled_;
  std::int64_t rep_ = -1;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name) : kNone) {}
  ~Scope() {
    if (index_ != kNone) {
      tracer_.close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  Tracer& tracer_;
  std::size_t index_;
};

}  // namespace mann::e2e
