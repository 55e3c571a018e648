// mann_served, driven over a pipe: the daemon's line protocol is part of
// the public surface, so these tests exercise the real binary (path
// injected as MANN_SERVED_PATH by CMake) end to end — command parsing,
// err handling that keeps the daemon alive, live reconfiguration with
// requests in flight, byte-stable output at a fixed schedule, and
// replay equivalence against the daemon's own --closed-loop mode.
//
// All runs use --tiny models: protocol and scheduling behaviour only
// depend on cycle costs (shapes), so nothing here needs trained models.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if !defined(MANN_SERVED_PATH) || !defined(MANN_MAKE_TRACE_PATH) || \
    !defined(MANN_SERVE_THROUGHPUT_PATH)
#error "MANN_*_PATH must point at the mann_served and tool binaries"
#endif

namespace {

std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("mann_served_test_" + name);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs the daemon with `flags`, feeding `commands` on stdin; returns
/// the full stdout transcript. popen is unidirectional, so the command
/// script goes through a file — which also mirrors how the CI replay
/// leg drives the daemon.
std::string run_daemon(const std::string& flags,
                       const std::string& commands,
                       const std::string& tag) {
  const std::filesystem::path script = temp_file(tag + ".cmds");
  {
    std::ofstream out(script);
    out << commands;
  }
  const std::string cmd = std::string(MANN_SERVED_PATH) + " " + flags +
                          " < " + script.string() + " 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string transcript;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    transcript += buffer;
  }
  const int rc = ::pclose(pipe);
  EXPECT_EQ(rc, 0) << "daemon exited non-zero for: " << cmd;
  std::filesystem::remove(script);
  return transcript;
}

std::size_t count_lines_with(const std::string& transcript,
                             const std::string& needle) {
  std::size_t count = 0;
  std::istringstream in(transcript);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) == 0) {
      ++count;
    }
  }
  return count;
}

TEST(ServedDaemon, SubmitInfoDrainQuitRoundTrip) {
  const std::string transcript = run_daemon(
      "--tiny 2",
      "submit 0\n"
      "submit 1\n"
      "info\n"
      "drain\n"
      "quit\n",
      "roundtrip");
  EXPECT_EQ(count_lines_with(transcript, "ready "), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 2U);
  EXPECT_EQ(count_lines_with(transcript, "done id="), 2U);
  EXPECT_EQ(count_lines_with(transcript, "info cycle="), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok quit"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
  EXPECT_NE(transcript.find("completed=2"), std::string::npos);
}

TEST(ServedDaemon, MalformedCommandsGetErrAndTheDaemonSurvives) {
  const std::string transcript = run_daemon(
      "--tiny 2",
      "bogus\n"
      "submit\n"
      "submit notanumber\n"
      "submit 99\n"
      "config policy sjf\n"
      "config tenant 0\n"
      "trace on\n"
      // A tenant id past 32 bits, a signed deadline, and an arrival at
      // or past the serving watchdog: refused, not truncated, wrapped or
      // left to expire the watchdog later.
      "submit 0 4294967296\n"
      "submit 0 0 -1\n"
      "submit 1 0 0 30000000000\n"
      "submit 0\n"
      "quit\n",
      "malformed");
  EXPECT_EQ(count_lines_with(transcript, "err "), 10U);
  // The daemon kept serving after every rejection.
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
  EXPECT_NE(transcript.find("offered=1"), std::string::npos);
}

/// Exit status of `command` run by the shell, output discarded.
int exit_code(const std::string& command) {
  const int status = std::system((command + " > /dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ServedDaemon, NumericFlagsFollowTheProtocolRule) {
  // Flags take the protocol's plain-digit rule: an overflowing value is
  // refused (exit 2, naming the flag) instead of saturating into
  // another seed or an impossible tenant registry.
  const auto daemon = [](const std::string& flags) {
    return exit_code("echo quit | " + std::string(MANN_SERVED_PATH) +
                     " --tiny 1 " + flags);
  };
  EXPECT_EQ(daemon("--seed 18446744073709551615"), 0);  // 2^64-1 fits
  EXPECT_EQ(daemon("--seed 18446744073709551616"), 2);
  EXPECT_EQ(daemon("--tenants 99999999999999999999"), 2);
  EXPECT_EQ(daemon("--devices -1"), 2);
  EXPECT_EQ(daemon("--max-batch +4"), 2);
  EXPECT_EQ(daemon("--slo ''"), 2);
}

TEST(ToolFlags, CountsFollowTheDaemonsDigitRule) {
  // The trace generator and the serving bench refuse the values the
  // daemon refuses (exit 2) instead of wrapping a sign, saturating an
  // overflow or stopping at the first non-digit.
  const std::filesystem::path out = temp_file("flags_trace.csv");
  const auto make_trace = [&](const std::string& flags) {
    return exit_code(std::string(MANN_MAKE_TRACE_PATH) + " --out " +
                     out.string() + " " + flags);
  };
  EXPECT_EQ(make_trace("--requests 12 --seed 18446744073709551615"), 0);
  EXPECT_EQ(make_trace("--requests 12abc"), 2);
  EXPECT_EQ(make_trace("--requests 99999999999999999999"), 2);
  EXPECT_EQ(make_trace("--requests 18446744073709551615"), 2);
  EXPECT_EQ(make_trace("--scale -1"), 2);
  EXPECT_EQ(make_trace("--tenants 0"), 2);
  EXPECT_EQ(make_trace("--seed 18446744073709551616"), 2);
  std::filesystem::remove(out);

  // The bench also exits 2 when the suite cache is missing, so the
  // refusal must name the flag.
  const auto bench_refuses = [](const std::string& flag,
                                const std::string& value) {
    const std::string cmd = std::string(MANN_SERVE_THROUGHPUT_PATH) + " " +
                            flag + " " + value + " 2>&1";
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    std::string output;
    char buffer[4096];
    while (pipe != nullptr &&
           std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
      output += buffer;
    }
    const int status = pipe != nullptr ? ::pclose(pipe) : -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 2 &&
           output.find(flag + " needs") != std::string::npos;
  };
  EXPECT_TRUE(bench_refuses("--requests", "99999999999999999999"));
  EXPECT_TRUE(bench_refuses("--requests", "4000x"));
  EXPECT_TRUE(bench_refuses("--tasks", "-3"));
  EXPECT_TRUE(bench_refuses("--fleet-threads", "+2"));
}

TEST(ServedDaemon, LiveReconfigurationLandsWithRequestsInFlight) {
  // Lockstep holds the clock at the last arrival, so the config
  // commands land while earlier submissions are still queued/in
  // flight; nothing may be dropped.
  const std::string transcript = run_daemon(
      "--tiny 2 --tenants 3 --lockstep",
      "submit 0 0 0 1000\n"
      "submit 1 1 0 1100\n"
      "submit 0 2 0 1200\n"
      "config tenant 1 1 5.0 0 8 2000000\n"
      "config slo 2000000\n"
      "config policy edf\n"
      "config policy wfq\n"
      "submit 1 1 0 5000\n"
      "drain\n"
      "quit\n",
      "reconfig");
  EXPECT_EQ(count_lines_with(transcript, "ok config tenant 1"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config slo"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy edf"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy wfq"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "done id="), 4U);
  EXPECT_EQ(count_lines_with(transcript, "shed id="), 0U);
  EXPECT_NE(transcript.find("completed=4 rejected=0"), std::string::npos);
}

TEST(ServedDaemon, WfqSwitchNeedsWfqConstruction) {
  // --tenants 1 defaults to EDF construction: no tenant lanes, so the
  // live switch to WFQ must refuse (err) without killing the daemon.
  const std::string transcript = run_daemon(
      "--tiny 2 --tenants 1",
      "config policy wfq\n"
      "config policy fifo\n"
      "quit\n",
      "wfq_refusal");
  EXPECT_EQ(count_lines_with(transcript, "err policy wfq"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy fifo"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
}

TEST(ServedDaemon, TranscriptIsByteStableAtAFixedSchedule) {
  const std::string commands =
      "submit 0 0 0 500\n"
      "submit 1 1 0 500\n"
      "submit 0 2 0 900\n"
      "submit 1 0 0 40000\n"
      "submit 0 1 0 40100\n"
      "info\n"
      "drain\n"
      "quit\n";
  const std::string first =
      run_daemon("--tiny 2 --tenants 3 --lockstep", commands, "stable_a");
  const std::string second =
      run_daemon("--tiny 2 --tenants 3 --lockstep", commands, "stable_b");
  EXPECT_EQ(first, second);
  EXPECT_EQ(count_lines_with(first, "done id="), 5U);
}

TEST(ServedDaemon, LockstepReplayMatchesClosedLoop) {
  // The acceptance gate in miniature: one arrival schedule served twice
  // — open loop through the protocol under --lockstep, closed loop via
  // --closed-loop — must produce byte-identical report JSON.
  const std::filesystem::path trace = temp_file("equiv.csv");
  {
    const struct { unsigned long long at; int task; int tenant; } rows[] = {
        {1'000, 0, 0}, {1'000, 1, 1}, {1'500, 0, 2},  {60'000, 1, 0},
        {60'200, 0, 1}, {61'000, 1, 2}, {300'000, 0, 0},
    };
    std::string commands;
    {
      std::ofstream out(trace);  // closed before the daemon reads it
      out << "arrival_cycle,task_id,tenant_id\n";
      for (const auto& row : rows) {
        out << row.at << "," << row.task << "," << row.tenant << "\n";
        commands += "submit " + std::to_string(row.task) + " " +
                    std::to_string(row.tenant) + " 0 " +
                    std::to_string(row.at) + "\n";
      }
      commands += "drain\nquit\n";
    }
    const std::filesystem::path open_json = temp_file("equiv_open.json");
    const std::string transcript = run_daemon(
        "--tiny 2 --tenants 3 --lockstep --report-json " +
            open_json.string(),
        commands, "equiv_open");
    EXPECT_EQ(count_lines_with(transcript, "done id="), 7U);

    const std::filesystem::path closed_json =
        temp_file("equiv_closed.json");
    const std::string closed_cmd =
        std::string(MANN_SERVED_PATH) + " --tiny 2 --tenants 3" +
        " --closed-loop " + trace.string() + " --report-json " +
        closed_json.string() + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(closed_cmd.c_str()), 0);

    const std::string open_report = read_file(open_json);
    const std::string closed_report = read_file(closed_json);
    ASSERT_FALSE(open_report.empty());
    EXPECT_EQ(open_report, closed_report);
    std::filesystem::remove(open_json);
    std::filesystem::remove(closed_json);
  }
  std::filesystem::remove(trace);
}

}  // namespace
