#include "serve/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace mann::serve {

std::optional<std::uint64_t> parse_digits(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

namespace {

[[nodiscard]] std::string trimmed(const std::string& line) {
  std::size_t begin = 0;
  std::size_t end = line.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(line[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(line[end - 1])) != 0) {
    --end;
  }
  return line.substr(begin, end - begin);
}

}  // namespace

std::vector<TraceEntry> load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_trace_csv: cannot open " + path);
  }
  std::vector<TraceEntry> entries;
  std::string raw;
  std::size_t line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string line = trimmed(raw);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    // Either versioned header row is tolerated anywhere digits are
    // expected to start; anything else non-numeric is a hard error.
    if (line == "arrival_cycle,task_id" ||
        line == "arrival_cycle,task_id,tenant_id") {
      continue;
    }
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("load_trace_csv: " + path + ":" +
                               std::to_string(line_number) + ": " + what +
                               ", got '" + line + "'");
    };
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) {
      fail("expected 'arrival_cycle,task_id[,tenant_id]'");
    }
    // v1 rows have two fields; v2 rows carry a third tenant_id field.
    const std::size_t second_comma = line.find(',', comma + 1);
    const std::size_t task_end =
        second_comma == std::string::npos ? line.size() : second_comma;
    const std::string_view row = line;
    const std::optional<std::uint64_t> cycle =
        parse_digits(row.substr(0, comma));
    const std::optional<std::uint64_t> task =
        parse_digits(row.substr(comma + 1, task_end - comma - 1));
    if (!cycle || !task) {
      fail("expected 'arrival_cycle,task_id[,tenant_id]'");
    }
    std::optional<std::uint64_t> tenant = 0;
    if (second_comma != std::string::npos) {
      tenant = parse_digits(row.substr(second_comma + 1));
      if (!tenant || *tenant > std::numeric_limits<TenantId>::max()) {
        fail("expected a tenant_id in the third column");
      }
    }
    if (!entries.empty() && *cycle < entries.back().arrival_cycle) {
      throw std::runtime_error("load_trace_csv: " + path + ":" +
                               std::to_string(line_number) +
                               ": arrival cycles must be non-decreasing");
    }
    entries.push_back({*cycle, static_cast<std::size_t>(*task),
                       static_cast<TenantId>(*tenant)});
  }
  return entries;
}

void save_trace_csv(const std::string& path,
                    const std::vector<TraceEntry>& entries) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_trace_csv: cannot write " + path);
  }
  out << "arrival_cycle,task_id,tenant_id\n";
  for (const TraceEntry& e : entries) {
    out << e.arrival_cycle << ',' << e.task << ',' << e.tenant << '\n';
  }
  if (!out) {
    throw std::runtime_error("save_trace_csv: write failed on " + path);
  }
}

namespace {

/// SplitMix64 — the seeding mixer numeric::Rng also builds on; used here
/// as a stateless hash so every replica's jitter is a pure function of
/// (seed, row, replica) and never of iteration order.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<TraceEntry> scale_trace(const std::vector<TraceEntry>& entries,
                                    std::size_t factor, std::uint64_t seed) {
  if (entries.empty() || factor <= 1) {
    return entries;
  }
  // Each row's replicas jitter within [arrival, arrival + gap), where gap
  // is the distance to the next row (mean gap for the tail row, so the
  // trace does not pile its last factor replicas on one cycle).
  const sim::Cycle span =
      entries.back().arrival_cycle - entries.front().arrival_cycle;
  const sim::Cycle mean_gap =
      entries.size() > 1
          ? std::max<sim::Cycle>(1, span / (entries.size() - 1))
          : 1;
  std::vector<TraceEntry> scaled;
  scaled.reserve(entries.size() * factor);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry& row = entries[i];
    scaled.push_back(row);
    const sim::Cycle gap =
        i + 1 < entries.size()
            ? std::max<sim::Cycle>(
                  1, entries[i + 1].arrival_cycle - row.arrival_cycle)
            : mean_gap;
    for (std::size_t r = 1; r < factor; ++r) {
      TraceEntry replica = row;
      replica.arrival_cycle =
          row.arrival_cycle + mix64(seed ^ mix64(i) ^ (r * 0x2545F4914F6CDD1DULL)) % gap;
      scaled.push_back(replica);
    }
  }
  // Jitter keeps replicas inside their local gap, but equal-cycle source
  // rows still interleave; one stable sort restores a valid schedule
  // while keeping the construction order deterministic on ties.
  std::stable_sort(scaled.begin(), scaled.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.arrival_cycle < b.arrival_cycle;
                   });
  return scaled;
}

}  // namespace mann::serve
