// mann_served, driven over a pipe: the daemon's line protocol is part of
// the public surface, so these tests exercise the real binary (path
// injected as MANN_SERVED_PATH by CMake) end to end — command parsing,
// err handling that keeps the daemon alive, live reconfiguration with
// requests in flight, both ends of a session (`quit` and EOF),
// byte-stable output at a fixed schedule, and replay equivalence
// against the daemon's own --closed-loop mode, on a fleet of one (the
// default) and of two. The other tools' count, real and unknown flags
// and a mann_cli train/eval/simulate round trip run here too.
//
// All daemon runs use --tiny models: protocol and scheduling behaviour
// only depend on cycle costs (shapes), so nothing here needs trained
// models.
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
    !defined(MANN_SERVE_THROUGHPUT_PATH) || !defined(MANN_CLI_PATH)
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

/// Lines starting with `prefix` that do not also contain `needle`.
std::size_t lines_missing(const std::string& transcript,
                          const std::string& prefix,
                          const std::string& needle) {
  std::size_t count = 0;
  std::istringstream in(transcript);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(prefix) == 0 && line.find(needle) == std::string::npos) {
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
  EXPECT_NE(transcript.find(" instances=1 "), std::string::npos);
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 2U);
  EXPECT_EQ(count_lines_with(transcript, "done id="), 2U);
  // One protocol: replies and stream lines name the serving instance,
  // and `info` is the fleet line plus one line per instance.
  EXPECT_EQ(lines_missing(transcript, "ok id=", " instance=0 "), 0U);
  EXPECT_EQ(lines_missing(transcript, "done id=", " instance=0"), 0U);
  EXPECT_EQ(count_lines_with(transcript, "info cycle="), 1U);
  EXPECT_EQ(count_lines_with(transcript, "info[0] cycle="), 1U);
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
  // The daemon kept serving after every rejection, and no refused submit
  // moved the clock: the good one still arrives at the fleet clock, 0.
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok id=0 instance=0 at=0"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
  EXPECT_NE(transcript.find("offered=1"), std::string::npos);
}

TEST(ServedDaemon, StepSaturatesInsteadOfWrapping) {
  // A step whose horizon lies past the last cycle runs to quiescence,
  // as ServerSession::step does: the request completes before `quit`
  // instead of the horizon wrapping below the clock.
  const std::string transcript = run_daemon(
      "--tiny 2 --lockstep --cluster 2",
      "submit 0 0 0 1000\n"
      "step 18446744073709551615\n"
      "quit\n",
      "step_saturates");
  EXPECT_EQ(count_lines_with(transcript, "ok step cycle="), 1U);
  EXPECT_EQ(lines_missing(transcript, "ok step cycle=", " idle=1"), 0U);
  const std::size_t done = transcript.find("\ndone id=0 ");
  ASSERT_NE(done, std::string::npos);
  EXPECT_LT(done, transcript.find("\nok quit"));
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
  EXPECT_EQ(daemon("--cluster 0"), 2);  // a fleet needs an instance
}

TEST(ToolFlags, CountsFollowTheDaemonsDigitRule) {
  // The trace generator, the serving bench and mann_cli refuse the
  // values the daemon refuses (exit 2) instead of wrapping a sign,
  // saturating an overflow, stopping at the first non-digit or ignoring
  // a misspelled flag.
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
  // Real-valued flags take the whole token as one finite number.
  EXPECT_EQ(make_trace("--mean-interarrival 5x"), 2);
  EXPECT_EQ(make_trace("--diurnal-amplitude abc"), 2);
  std::filesystem::remove(out);

  const auto cli = [](const std::string& flags) {
    return exit_code(std::string(MANN_CLI_PATH) + " generate " + flags);
  };
  EXPECT_EQ(cli("--task 3 --count 2"), 0);
  EXPECT_EQ(cli("--count 2x"), 2);
  EXPECT_EQ(cli("--count -1"), 2);
  EXPECT_EQ(cli("--count 99999999999999999999"), 2);  // not LONG_MAX
  EXPECT_EQ(cli("--task 3abc"), 2);
  EXPECT_EQ(cli("--task 21"), 2);
  // A flag the command does not list is refused, not silently ignored.
  EXPECT_EQ(cli("--task 1 --cuont 2"), 2);

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

TEST(MannCli, TrainEvalSimulateRoundTrip) {
  // train saves a model and its vocabulary; eval and simulate rebuild
  // the same (task, seed) split and load the model, so a save/load or
  // flag-parsing break in any subcommand fails here.
  const std::filesystem::path dir = temp_file("cli_round_trip");
  std::filesystem::create_directories(dir);
  const std::string model = (dir / "model.bin").string();
  const std::string cli = std::string(MANN_CLI_PATH);
  const std::string split = " --task 1 --train 60 --test 20 --seed 5";
  EXPECT_EQ(exit_code(cli + " train --out " + model + split +
                      " --epochs 2 --dim 8 --hops 1"),
            0);
  EXPECT_TRUE(std::filesystem::exists(model + ".vocab"));
  EXPECT_EQ(exit_code(cli + " eval --model " + model + split), 0);
  EXPECT_EQ(exit_code(cli + " simulate --model " + model + split + " --ith"),
            0);
  std::filesystem::remove_all(dir);
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
      // Non-finite numbers are refused, not stored as a NaN or infinite
      // weight: 1e400 overflows a double.
      "config tenant 1 0 nan 0 8 0\n"
      "config tenant 1 0 1e400 0 8 0\n"
      "config tenant 1 1 5.0 0 8 2000000\n"
      "config slo 2000000\n"
      "config policy edf\n"
      "config policy wfq\n"
      "submit 1 1 0 5000\n"
      "drain\n"
      "quit\n",
      "reconfig");
  EXPECT_EQ(count_lines_with(transcript, "err "), 2U);
  EXPECT_EQ(count_lines_with(transcript, "ok config tenant 1"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config slo"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy edf"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy wfq"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "done id="), 4U);
  EXPECT_EQ(count_lines_with(transcript, "shed id="), 0U);
  EXPECT_NE(transcript.find("completed=4 rejected=0"), std::string::npos);
}

/// The lines of `transcript` that start with one of `prefixes`.
std::string lines_starting(const std::string& transcript,
                           const std::vector<std::string>& prefixes) {
  std::string kept;
  std::istringstream in(transcript);
  std::string line;
  while (std::getline(in, line)) {
    for (const std::string& prefix : prefixes) {
      if (line.find(prefix) == 0) {
        kept += line + "\n";
        break;
      }
    }
  }
  return kept;
}

TEST(ServedDaemon, EofEndsTheSessionLikeQuit) {
  // The loop has two exits. EOF without `quit` must finish the session
  // exactly as `quit` does (drain, stream the tail, bye, report), and a
  // `quit` with trailing text still quits: nothing after it is answered.
  const std::string script =
      "submit 0 0 0 1000\n"
      "submit 1 1 0 1100\n"
      "submit 0 2 0 60000\n";
  const std::string flags = "--tiny 2 --tenants 3 --lockstep --report-json ";
  const auto serve = [&](const std::string& tail, const std::string& tag,
                         std::string& report) {
    const std::filesystem::path json = temp_file(tag + ".json");
    const std::string transcript =
        run_daemon(flags + json.string(), script + tail, tag);
    report = read_file(json);
    std::filesystem::remove(json);
    return transcript;
  };
  std::string quit_report;
  std::string eof_report;
  std::string quit_now_report;
  const std::string quit = serve("quit\n", "exit_quit", quit_report);
  const std::string eof = serve("", "exit_eof", eof_report);
  const std::string quit_now =
      serve("quit now\nsubmit 0\ninfo\nbogus\n", "exit_quit_now",
            quit_now_report);

  const std::vector<std::string> resolved = {"done ", "shed ", "bye "};
  EXPECT_EQ(count_lines_with(quit, "done id="), 3U);
  EXPECT_EQ(count_lines_with(quit, "bye "), 1U);
  ASSERT_FALSE(quit_report.empty());
  EXPECT_EQ(lines_starting(eof, resolved), lines_starting(quit, resolved));
  EXPECT_EQ(eof_report, quit_report);
  EXPECT_EQ(count_lines_with(eof, "ok quit"), 0U);

  EXPECT_EQ(lines_starting(quit_now, resolved),
            lines_starting(quit, resolved));
  EXPECT_EQ(quit_now_report, quit_report);
  EXPECT_EQ(count_lines_with(quit_now, "ok quit"), 1U);
  EXPECT_EQ(count_lines_with(quit_now, "ok id="), 3U);
  EXPECT_EQ(count_lines_with(quit_now, "info"), 0U);
  EXPECT_EQ(count_lines_with(quit_now, "err "), 0U);
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
  // --closed-loop — must produce byte-identical report JSON, on a fleet
  // of one and on a load-routed (p2c) fleet of two.
  const std::filesystem::path trace = temp_file("equiv.csv");
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
  for (const char* fleet : {"", " --cluster 2"}) {
    SCOPED_TRACE(fleet);
    const std::string flags = std::string("--tiny 2 --tenants 3") + fleet;
    const std::filesystem::path open_json = temp_file("equiv_open.json");
    const std::string transcript =
        run_daemon(flags + " --lockstep --report-json " + open_json.string(),
                   commands, "equiv_open");
    EXPECT_EQ(count_lines_with(transcript, "done id="), 7U);

    const std::filesystem::path closed_json =
        temp_file("equiv_closed.json");
    const std::string closed_cmd =
        std::string(MANN_SERVED_PATH) + " " + flags + " --closed-loop " +
        trace.string() + " --report-json " + closed_json.string() +
        " > /dev/null 2>&1";
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
