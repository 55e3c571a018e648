// Diurnal and trace-driven arrival processes, tenant draws, and the trace
// CSV interchange format. (The session stamps SLO deadlines; its tests
// live in session_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "numeric/random.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"
#include "serve_test_util.hpp"

namespace mann::serve {
namespace {

using testing::tiny_program;
using testing::tiny_stories;

std::vector<TraceEntry> emit_all(const TrafficConfig& config,
                                 std::size_t num_tasks, std::size_t total) {
  TrafficGenerator gen(config, num_tasks, total);
  std::vector<TraceEntry> out;
  while (auto r = gen.poll(sim::kNever - 1)) {
    out.push_back(*r);
  }
  return out;
}

TEST(DiurnalTraffic, KeepsLongRunRate) {
  TrafficConfig config;
  config.process = ArrivalProcess::kDiurnal;
  config.mean_interarrival_cycles = 1'000.0;
  config.diurnal_amplitude = 0.8;
  config.diurnal_period_cycles = 500'000.0;
  const auto requests = emit_all(config, 1, 4'000);
  ASSERT_EQ(requests.size(), 4'000U);
  const double mean_gap =
      static_cast<double>(requests.back().arrival_cycle) / 4'000.0;
  // Long-run rate within 25% of the flat-Poisson configuration (the
  // sinusoid averages out over the eight periods this spans).
  EXPECT_GT(mean_gap, 750.0);
  EXPECT_LT(mean_gap, 1'250.0);
}

TEST(DiurnalTraffic, PeakIsDenserThanTrough) {
  TrafficConfig config;
  config.process = ArrivalProcess::kDiurnal;
  config.mean_interarrival_cycles = 1'000.0;
  config.diurnal_amplitude = 0.9;
  config.diurnal_period_cycles = 1'000'000.0;
  const auto requests = emit_all(config, 1, 3'000);

  // sin peaks at P/4 and troughs at 3P/4; count arrivals in equal-width
  // windows around both across every period covered.
  const auto period = static_cast<sim::Cycle>(config.diurnal_period_cycles);
  std::size_t peak = 0;
  std::size_t trough = 0;
  for (const TraceEntry& r : requests) {
    const sim::Cycle phase = r.arrival_cycle % period;
    if (phase < period / 2) {
      ++peak;
    } else {
      ++trough;
    }
  }
  // With A=0.9 the first half-period carries the sinusoid's positive
  // lobe; demand a decisive (not knife-edge) imbalance.
  EXPECT_GT(peak, trough * 2);
}

TEST(DiurnalTraffic, ValidatesModulationParameters) {
  TrafficConfig config;
  config.process = ArrivalProcess::kDiurnal;
  config.diurnal_amplitude = 1.0;  // rate would touch zero
  EXPECT_THROW(TrafficGenerator(config, 1, 4),
               std::invalid_argument);
  config.diurnal_amplitude = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TrafficGenerator(config, 1, 4),
               std::invalid_argument);
  config.diurnal_amplitude = 0.5;
  config.diurnal_period_cycles = 0.0;
  EXPECT_THROW(TrafficGenerator(config, 1, 4),
               std::invalid_argument);
}

TEST(TraceTraffic, ReplaysScheduleExactly) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {{100, 1}, {250, 0}, {250, 1}, {900, 0}};
  const auto requests =
      emit_all(config, 2, 4);
  ASSERT_EQ(requests.size(), 4U);
  EXPECT_EQ(requests[0].arrival_cycle, 100U);
  EXPECT_EQ(requests[0].task, 1U);
  EXPECT_EQ(requests[1].arrival_cycle, 250U);
  EXPECT_EQ(requests[1].task, 0U);
  EXPECT_EQ(requests[2].arrival_cycle, 250U);
  EXPECT_EQ(requests[2].task, 1U);
  EXPECT_EQ(requests[3].arrival_cycle, 900U);
  EXPECT_EQ(requests[3].task, 0U);
}

TEST(TraceTraffic, LoopsWithShiftWhenRequestsExceedTrace) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {{100, 0}, {400, 0}};
  const auto requests = emit_all(config, 1, 5);
  ASSERT_EQ(requests.size(), 5U);
  // Span = last + max(1, last/n) = 400 + 200 = 600 per lap.
  EXPECT_EQ(requests[0].arrival_cycle, 100U);
  EXPECT_EQ(requests[1].arrival_cycle, 400U);
  EXPECT_EQ(requests[2].arrival_cycle, 700U);
  EXPECT_EQ(requests[3].arrival_cycle, 1'000U);
  EXPECT_EQ(requests[4].arrival_cycle, 1'300U);
}

TEST(TraceTraffic, RejectsMalformedTraces) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {};
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.trace = {{500, 0}, {100, 0}};  // time goes backwards
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.trace = {{100, 9}};  // unknown task
  EXPECT_THROW(TrafficGenerator(config, 1, 1),
               std::invalid_argument);
}

TEST(TenantTraffic, DefaultsToSingleTenant) {
  TrafficConfig config;
  config.mean_interarrival_cycles = 1'000.0;
  const auto requests = emit_all(config, 1, 16);
  for (const TraceEntry& r : requests) {
    EXPECT_EQ(r.tenant, 0U);
  }
}

TEST(TenantTraffic, DrawsByTrafficShareDeterministically) {
  TrafficConfig config;
  config.mean_interarrival_cycles = 500.0;
  config.tenants.resize(3);
  config.tenants[0].traffic_share = 1.0;
  config.tenants[1].traffic_share = 1.0;
  config.tenants[2].traffic_share = 6.0;

  const auto first = emit_all(config, 1, 2'000);
  std::size_t counts[3] = {0, 0, 0};
  for (const TraceEntry& r : first) {
    ASSERT_LT(r.tenant, 3U);
    ++counts[r.tenant];
  }
  // 6/8 of the traffic should be tenant 2's (loose bounds: the draw is
  // random but seeded).
  EXPECT_GT(counts[2], counts[0] * 3);
  EXPECT_GT(counts[2], counts[1] * 3);
  EXPECT_GT(counts[0], 100U);
  EXPECT_GT(counts[1], 100U);

  // Same seed, same sequence — tenant by tenant.
  const auto second = emit_all(config, 1, 2'000);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].tenant, first[i].tenant);
  }
}

TEST(TenantTraffic, LabelsNeverPerturbArrivalTiming) {
  // The tenant draw uses its own RNG stream: adding a registry must not
  // move a single arrival cycle or task pick.
  TrafficConfig plain;
  plain.process = ArrivalProcess::kBursty;
  plain.mean_interarrival_cycles = 1'000.0;
  const auto without = emit_all(plain, 2, 500);

  TrafficConfig tenanted = plain;
  tenanted.tenants.resize(3);
  tenanted.tenants[2].traffic_share = 5.0;
  const auto with =
      emit_all(tenanted, 2, 500);

  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].arrival_cycle, without[i].arrival_cycle);
    EXPECT_EQ(with[i].task, without[i].task);
  }
}

TEST(TenantTraffic, ValidatesSharesAndTraceTenants) {
  TrafficConfig config;
  config.tenants.resize(2);
  config.tenants[0].traffic_share = -1.0;
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.tenants[0].traffic_share = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
  config.tenants[0].traffic_share = 0.0;
  config.tenants[1].traffic_share = 0.0;
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);

  // A trace naming a tenant outside the registry is as malformed as one
  // naming an unknown task.
  TrafficConfig trace_config;
  trace_config.process = ArrivalProcess::kTrace;
  trace_config.trace = {{100, 0, 1}};
  EXPECT_THROW(TrafficGenerator(trace_config, 1, 1),
               std::invalid_argument);
  trace_config.tenants.resize(2);
  EXPECT_NO_THROW(TrafficGenerator(trace_config, 1, 1));
}

TEST(TraceTraffic, ReplaysTenantsFromRecording) {
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = {{100, 0, 2}, {250, 0, 0}, {400, 0, 1}};
  config.tenants.resize(3);
  const auto requests = emit_all(config, 1, 3);
  ASSERT_EQ(requests.size(), 3U);
  EXPECT_EQ(requests[0].tenant, 2U);
  EXPECT_EQ(requests[1].tenant, 0U);
  EXPECT_EQ(requests[2].tenant, 1U);
}

TEST(TraceCsv, RoundTripsThroughDisk) {
  const std::vector<TraceEntry> entries = {{0, 3}, {120, 0}, {120, 1},
                                           {99'000, 2}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_rt.csv").string();
  save_trace_csv(path, entries);
  const std::vector<TraceEntry> loaded = load_trace_csv(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded, entries);
}

TEST(TraceCsv, RoundTripsTenantsThroughDisk) {
  const std::vector<TraceEntry> entries = {
      {0, 3, 1}, {120, 0, 0}, {120, 1, 2}, {99'000, 2, 1}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_rt_v2.csv")
          .string();
  save_trace_csv(path, entries);
  const std::vector<TraceEntry> loaded = load_trace_csv(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded, entries);
}

TEST(TraceCsv, AcceptsCommentsBlanksAndHeader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_hdr.csv")
          .string();
  {
    std::ofstream out(path);
    out << "# recorded 2026-07-29\n"
        << "arrival_cycle,task_id\n"
        << "\n"
        << "10,0\n"
        << "  20,1  \n";
  }
  const std::vector<TraceEntry> loaded = load_trace_csv(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), 2U);
  EXPECT_EQ(loaded[0], (TraceEntry{10, 0}));
  EXPECT_EQ(loaded[1], (TraceEntry{20, 1}));
}

TEST(TraceCsv, RejectsGarbageAndBackwardsTime) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_bad.csv")
          .string();
  {
    std::ofstream out(path);
    out << "10,zero\n";
  }
  EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "100,0\n50,0\n";
  }
  EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);  // missing
}

// Every way a row can be malformed must be a loud error with the line
// number, never a silently-skipped or misparsed arrival.
TEST(TraceCsv, RejectsMalformedRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_malformed.csv")
          .string();
  const auto expect_throw_for = [&](const std::string& row) {
    SCOPED_TRACE("row: '" + row + "'");
    {
      std::ofstream out(path);
      out << row << "\n";
    }
    EXPECT_THROW((void)load_trace_csv(path), std::runtime_error);
  };

  expect_throw_for("123");          // truncated: no task column
  expect_throw_for("123,");         // truncated: empty task column
  expect_throw_for(",5");           // truncated: empty cycle column
  expect_throw_for("abc,0");        // non-numeric cycle
  expect_throw_for("1e3,0");        // non-numeric cycle (no floats)
  expect_throw_for("-10,0");        // negative cycle
  expect_throw_for("10,0,");        // truncated: empty tenant column
  expect_throw_for("10,0,bad");     // non-numeric tenant
  expect_throw_for("10,0,1,9");     // too many columns
  expect_throw_for("99999999999999999999,0");  // u64 overflow
  std::filesystem::remove(path);
}

/// One valid v2 trace with a single edit, and what the loader must do
/// with it where the edit decides that.
struct TraceEditCase {
  enum class Expect { kThrow, kLoad, kEither };
  std::string text;
  std::size_t edited_line = 1;  ///< 1-based; a refusal names it or a later one
  Expect expect = Expect::kEither;
  std::string edit;  ///< for failure messages
};

/// Seeded case generator in the shape of seabrute's task_generator:
/// get_next() yields case i of the sweep as a pure function of (seed, i),
/// so a failing case reproduces from its number alone.
class TraceEditGenerator {
 public:
  explicit TraceEditGenerator(std::uint64_t seed) : seed_(seed) {}

  TraceEditCase get_next() {
    const std::uint64_t i = next_++;
    numeric::Rng rng(numeric::mix64(seed_ ^ i));
    // The header, then 3-8 rows whose cycles never go backwards (a gap
    // may be 0) and start above 0, so any row after the first can.
    std::vector<std::vector<std::string>> rows(3 + rng.index(6));
    std::uint64_t cycle = 1 + rng.index(1000);
    for (auto& row : rows) {
      cycle += rng.index(4) == 0 ? 0 : rng.index(5000);
      row = {std::to_string(cycle), std::to_string(rng.index(20)),
             std::to_string(rng.index(4))};
    }
    std::size_t target = rng.index(rows.size());
    const std::size_t field = rng.index(3);
    std::string& value = rows[target][field];
    std::optional<std::string> before;  // a line inserted above the target
    std::string eol = "\n";
    TraceEditCase c;
    using Expect = TraceEditCase::Expect;
    switch (i % 12) {
      case 0:
        c.edit = "field dropped";
        rows[target].erase(rows[target].begin() + field);
        break;
      case 1: {
        c.edit = "field doubled";
        const std::string doubled = value;
        rows[target].insert(rows[target].begin() + field, doubled);
        c.expect = Expect::kThrow;
        break;
      }
      case 2:
        c.edit = "field emptied";
        value.clear();
        c.expect = Expect::kThrow;
        break;
      case 3:
        c.edit = "sign";
        value.insert(0, rng.index(2) == 0 ? "-" : "+");
        c.expect = Expect::kThrow;
        break;
      case 4:
        c.edit = "non-digit";
        value[rng.index(value.size())] = "x.e/:a"[rng.index(6)];
        c.expect = Expect::kThrow;
        break;
      case 5:
        c.edit = "21-digit count";
        value = std::to_string(1 + rng.index(9));
        while (value.size() < 21) {
          value += static_cast<char>('0' + rng.index(10));
        }
        c.expect = Expect::kThrow;
        break;
      case 6:
        c.edit = "tenant at or past 2^32-1";
        if (rng.index(4) == 0) {
          rows[target][2] = "4294967295";
          c.expect = Expect::kLoad;
        } else {
          rows[target][2] = std::to_string((1ULL << 32) + rng.index(1000));
          c.expect = Expect::kThrow;
        }
        break;
      case 7: {
        c.edit = "backwards cycle";
        target = std::max<std::size_t>(target, 1);
        const std::uint64_t previous = std::stoull(rows[target - 1][0]);
        rows[target][0] = std::to_string(rng.index(previous));
        c.expect = Expect::kThrow;
        break;
      }
      case 8:
        c.edit = "fourth column";
        rows[target].push_back(std::to_string(rng.index(100)));
        c.expect = Expect::kThrow;
        break;
      case 9:
        c.edit = "CR line ends";
        eol = "\r\n";
        target = 0;
        c.expect = Expect::kLoad;
        break;
      case 10:
        c.edit = "header mid-file";
        before = rng.index(2) == 0 ? "arrival_cycle,task_id"
                                   : "arrival_cycle,task_id,tenant_id";
        c.expect = Expect::kLoad;
        break;
      default:
        c.edit = "blank or comment line";
        before = std::array<const char*, 3>{"", "   ", "# note"}[rng.index(3)];
        c.expect = Expect::kLoad;
        break;
    }
    c.text = "arrival_cycle,task_id,tenant_id" + eol;
    std::size_t line = 1;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r == target) {
        if (before) {
          c.text += *before + eol;
          ++line;
        }
        c.edited_line = line + 1;
      }
      for (std::size_t f = 0; f < rows[r].size(); ++f) {
        c.text += (f == 0 ? "" : ",") + rows[r][f];
      }
      c.text += eol;
      ++line;
    }
    return c;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t next_ = 0;
};

// A trace file comes from outside the program: every single edit of a
// valid trace either throws a std::runtime_error naming path:line, at or
// after the edited line, or loads entries that save and load back
// unchanged.
TEST(TraceCsv, SeededSingleEditsFailAtTheirLineOrRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "mann_trace_sweep.csv").string();
  const std::string copy = (dir / "mann_trace_sweep_copy.csv").string();
  TraceEditGenerator cases(2019);
  std::size_t threw = 0;
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < 1200; ++i) {
    const TraceEditCase c = cases.get_next();
    SCOPED_TRACE("case " + std::to_string(i) + " (" + c.edit + "):\n" +
                 c.text);
    {
      std::ofstream out(path, std::ios::binary);
      out << c.text;
    }
    std::vector<TraceEntry> entries;
    try {
      entries = load_trace_csv(path);
    } catch (const std::runtime_error& error) {
      ++threw;
      const std::string message = error.what();
      const std::size_t at = message.find(path + ":");
      ASSERT_NE(at, std::string::npos) << message;
      const std::string_view rest =
          std::string_view(message).substr(at + path.size() + 1);
      const std::optional<std::uint64_t> line =
          parse_digits(rest.substr(0, rest.find(':')));
      ASSERT_TRUE(line.has_value()) << message;
      EXPECT_GE(*line, c.edited_line) << message;
      EXPECT_NE(c.expect, TraceEditCase::Expect::kLoad) << message;
      continue;
    }
    ++loaded;
    EXPECT_NE(c.expect, TraceEditCase::Expect::kThrow);
    save_trace_csv(copy, entries);
    EXPECT_EQ(load_trace_csv(copy), entries);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(copy);
  EXPECT_GT(threw, 400U);
  EXPECT_GT(loaded, 300U);
}

// A task id a trace names but the replayer was never given is a
// configuration error at generator construction, not a silent wrap.
TEST(TraceTraffic, RejectsUnknownTaskIdFromLoadedTrace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mann_trace_unknown.csv")
          .string();
  {
    std::ofstream out(path);
    out << "arrival_cycle,task_id,tenant_id\n10,0,0\n20,7,0\n";
  }
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = load_trace_csv(path);
  std::filesystem::remove(path);
  EXPECT_THROW(TrafficGenerator(config, 1, 2),
               std::invalid_argument);
}

// The tentpole determinism contract: trace-driven replay produces the
// identical simulated timeline for any worker count (speculation must
// never leak into dispatch decisions), under the deadline-aware policy.
TEST(TraceTraffic, ReplayDeterministicAcrossWorkerCounts) {
  const auto stories = tiny_stories(10);
  std::vector<TraceEntry> trace;
  for (sim::Cycle i = 0; i < 60; ++i) {
    trace.push_back({i * 700, i % 2});
  }

  const auto run_with_workers = [&](std::size_t workers) {
    ServerConfig config;
    config.traffic.process = ArrivalProcess::kTrace;
    config.traffic.trace = trace;
    config.traffic.slo.default_deadline_cycles = 400'000;
    config.batcher.max_batch = 4;
    config.batcher.max_wait_cycles = 20'000;
    config.scheduler.devices = 2;
    config.scheduler.dedicated_devices = 2;
    config.scheduler.policy = SchedulerPolicy::kEdf;
    config.scheduler.workers = workers;
    std::vector<ServedModel> models;
    models.push_back({tiny_program(7), stories});
    models.push_back({tiny_program(8), stories});
    return serve::run(config, models, 60);
  };

  const ServingReport sequential = run_with_workers(0);
  ASSERT_EQ(sequential.completed, 60U);
  for (const std::size_t workers : {1U, 3U}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const ServingReport parallel = run_with_workers(workers);
    EXPECT_EQ(parallel.makespan_cycles, sequential.makespan_cycles);
    EXPECT_DOUBLE_EQ(parallel.accuracy, sequential.accuracy);
    EXPECT_DOUBLE_EQ(parallel.latency.p99_cycles,
                     sequential.latency.p99_cycles);
    EXPECT_EQ(parallel.deadline_missed, sequential.deadline_missed);
    EXPECT_DOUBLE_EQ(parallel.deadline_hit_rate,
                     sequential.deadline_hit_rate);
    EXPECT_EQ(parallel.model_uploads, sequential.model_uploads);
    EXPECT_EQ(parallel.model_evictions, sequential.model_evictions);
    EXPECT_EQ(parallel.stolen_batches, sequential.stolen_batches);
    EXPECT_DOUBLE_EQ(parallel.energy.per_inference_joules,
                     sequential.energy.per_inference_joules);
  }
}

// scale_trace: volume amplification that preserves the trace's shape.
// Replicas jitter inside the local inter-arrival gap, so bursts stay
// bursts and the trough stays a trough at any factor.
TEST(ScaleTrace, KeepsOriginalsAndAddsJitteredReplicas) {
  const std::vector<TraceEntry> base = {
      {1'000, 0, 1}, {1'000, 1, 2}, {5'000, 0, 0}, {90'000, 1, 1}};
  const std::vector<TraceEntry> scaled = scale_trace(base, 3, 42);
  ASSERT_EQ(scaled.size(), base.size() * 3);

  // Arrival-sorted (valid for replay / save_trace_csv).
  for (std::size_t i = 1; i < scaled.size(); ++i) {
    EXPECT_LE(scaled[i - 1].arrival_cycle, scaled[i].arrival_cycle);
  }
  // Every original row survives verbatim, and each original contributes
  // exactly factor rows with its task/tenant pair.
  for (const TraceEntry& original : base) {
    std::size_t verbatim = 0;
    std::size_t family = 0;
    for (const TraceEntry& entry : scaled) {
      verbatim += entry == original ? 1 : 0;
      family += entry.task == original.task && entry.tenant == original.tenant
                    ? 1
                    : 0;
    }
    EXPECT_GE(verbatim, 1u);
    // Both tasks appear twice in `base`, so each (task, tenant) family
    // is exactly one original's replicas.
    EXPECT_EQ(family, 3u);
  }
  // Jitter stays within the local gap: nothing lands past the last
  // original arrival plus its mean-gap tail allowance.
  const sim::Cycle span = base.back().arrival_cycle - base.front().arrival_cycle;
  const sim::Cycle mean_gap = span / (base.size() - 1);
  for (const TraceEntry& entry : scaled) {
    EXPECT_LT(entry.arrival_cycle,
              base.back().arrival_cycle + mean_gap);
  }
}

TEST(ScaleTrace, IsDeterministicPerSeedAndIdentityAtFactorOne) {
  const std::vector<TraceEntry> base = {
      {0, 0, 0}, {200, 1, 1}, {250, 0, 2}, {8'000, 1, 0}};
  EXPECT_EQ(scale_trace(base, 1, 7), base);
  EXPECT_EQ(scale_trace(base, 0, 7), base);  // 0 treated as identity
  EXPECT_EQ(scale_trace(base, 10, 7), scale_trace(base, 10, 7));
  // A different seed moves the replicas (the originals stay).
  EXPECT_NE(scale_trace(base, 10, 7), scale_trace(base, 10, 8));
  EXPECT_TRUE(scale_trace({}, 5, 7).empty());
}

TEST(ScaleTrace, ScaledTraceReplaysDeterministically) {
  const std::vector<TraceEntry> base = {
      {1'000, 0, 0}, {1'200, 1, 1}, {40'000, 0, 2}, {41'000, 1, 0}};
  TrafficConfig config;
  config.process = ArrivalProcess::kTrace;
  config.trace = scale_trace(base, 5, 11);
  config.tenants.resize(3);
  const auto first = emit_all(config, 2,
                              config.trace.size());
  const auto second = emit_all(config, 2,
                               config.trace.size());
  ASSERT_EQ(first.size(), base.size() * 5);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].arrival_cycle, second[i].arrival_cycle);
    EXPECT_EQ(first[i].task, second[i].task);
    EXPECT_EQ(first[i].tenant, second[i].tenant);
  }
}

}  // namespace
}  // namespace mann::serve
