// Negative-path contract for the command-line tools: every user mistake —
// an unknown flag, a missing file, a malformed input file — must produce a
// nonzero exit and exactly one diagnostic line on stderr, with no crash
// and no partial output file left behind. The tools are exercised as real
// subprocesses (ESD_TOOL_DIR is injected by CMake).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <sys/wait.h>

namespace {

std::string ToolDir() { return ESD_TOOL_DIR; }

struct RunResult {
  int exit_code = -1;
  std::string stderr_text;
};

// Runs `command`, swallowing stdout and capturing stderr.
RunResult RunCommand(const std::string& command) {
  RunResult result;
  std::string wrapped = command + " 2>&1 1>/dev/null";
  FILE* pipe = popen(wrapped.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> buf;
  size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.stderr_text.append(buf.data(), n);
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else {
    result.exit_code = 128;  // Signal: the "no crash" assertions will fail.
  }
  return result;
}

size_t LineCount(const std::string& text) {
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  return lines;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

void WriteTo(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

// Asserts the negative-path contract: nonzero exit (but a clean exit, not
// a signal), exactly one diagnostic line. Returns the run for further checks.
RunResult ExpectOneLineFailure(const std::string& command) {
  RunResult r = RunCommand(command);
  EXPECT_GT(r.exit_code, 0) << command;
  EXPECT_LT(r.exit_code, 128) << command << " died on a signal";
  EXPECT_EQ(LineCount(r.stderr_text), 1u)
      << command << "\nstderr was:\n" << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("error"), std::string::npos) << command;
  return r;
}

class CliNegativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "esd_cli_negative";
    std::string mk = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mk.c_str()), 0);
    program_ = dir_ + "/prog.esd";
    WriteTo(program_, R"(
func @main() : i32 {
entry:
  ret i32 0
}
)");
    bad_exec_ = dir_ + "/bad.esdx";
    WriteTo(bad_exec_, "execution v1\nbug deadlock\nwat 1 2\n");
    bad_core_ = dir_ + "/bad.core";
    WriteTo(bad_core_, "this is not a coredump\n");
    bad_prog_ = dir_ + "/bad.esd";
    WriteTo(bad_prog_, "func @main( {{{\n");
  }

  std::string Tool(const std::string& name) { return ToolDir() + "/" + name; }

  std::string dir_, program_, bad_exec_, bad_core_, bad_prog_;
};

TEST_F(CliNegativeTest, UnknownFlagIsOneLineError) {
  ExpectOneLineFailure(Tool("esdsynth") + " a.esd a.core --wat");
  ExpectOneLineFailure(Tool("esdplay") + " a.esd a.esdx --wat");
  ExpectOneLineFailure(Tool("esdrun") + " a.esd --wat");
  ExpectOneLineFailure(Tool("esdcheck") + " a.esd --wat");
  ExpectOneLineFailure(Tool("esdfuzz") + " --wat");
}

TEST_F(CliNegativeTest, MissingFileIsOneLineError) {
  ExpectOneLineFailure(Tool("esdsynth") + " " + dir_ + "/absent.esd " + dir_ +
                       "/absent.core");
  ExpectOneLineFailure(Tool("esdplay") + " " + program_ + " " + dir_ +
                       "/absent.esdx");
  ExpectOneLineFailure(Tool("esdrun") + " " + dir_ + "/absent.esd");
  ExpectOneLineFailure(Tool("esdcheck") + " " + dir_ + "/absent.esd");
}

TEST_F(CliNegativeTest, MalformedInputIsOneLineError) {
  // Malformed execution file (esdplay), coredump (esdsynth), program
  // (esdrun/esdcheck): each parser reports one precise diagnostic.
  ExpectOneLineFailure(Tool("esdplay") + " " + program_ + " " + bad_exec_);
  ExpectOneLineFailure(Tool("esdsynth") + " " + program_ + " " + bad_core_);
  ExpectOneLineFailure(Tool("esdrun") + " " + bad_prog_);
  ExpectOneLineFailure(Tool("esdcheck") + " " + bad_prog_);
}

TEST_F(CliNegativeTest, MalformedSyncSurfaceRecordsAreOneLineErrors) {
  // The sync-surface event records (rd-lock / sem-wait / barrier /
  // try-fail) get the same precise one-line rejection as the legacy
  // records: truncated fields, trailing garbage, unknown kinds.
  struct BadExec {
    const char* name;
    const char* body;
  };
  const BadExec kBad[] = {
      {"truncated_sem", "execution v1\nbug deadlock\nhb sem-wait 1\n"},
      {"trailing_rd", "execution v1\nbug deadlock\nhb rd-lock 1 72 f:b:0 x\n"},
      {"unknown_kind", "execution v1\nbug deadlock\nhb spin-lock 1 72 f:b:0\n"},
      {"bad_tryfail", "execution v1\nbug deadlock\nhb try-fail nope 0 f:b:0\n"},
  };
  for (const BadExec& bad : kBad) {
    std::string path = dir_ + "/" + bad.name + ".esdx";
    WriteTo(path, bad.body);
    ExpectOneLineFailure(Tool("esdplay") + " " + program_ + " " + path);
  }
}

TEST_F(CliNegativeTest, MalformedNumericFlagsAreOneLineErrors) {
  // A real program, report, manifest and execution file, so that a value
  // read only in part (or read as zero) would run rather than fail on its
  // inputs: only the flag check can make these commands exit 2.
  ASSERT_EQ(RunCommand(Tool("esdfuzz") + " --emit-corpus " + dir_ +
                       " --seeds 1 --seed-base 1")
                .exit_code,
            0);
  const std::string prog = dir_ + "/seed1.esd";
  const std::string core = dir_ + "/seed1.core";
  const std::string exec = dir_ + "/seed1.esdx";
  ASSERT_EQ(RunCommand(Tool("esdsynth") + " " + prog + " " + core + " -o " +
                       exec)
                .exit_code,
            0);
  const std::string out = dir_ + "/bad_flag.esdx";
  const std::string dump = dir_ + "/bad_flag.core";
  std::remove(out.c_str());
  std::remove(dump.c_str());
  const std::string synth =
      Tool("esdsynth") + " " + prog + " " + core + " -o " + out;
  const std::string run = Tool("esdrun") + " " + prog + " --dump " + dump;
  const std::string served =
      Tool("esdserved") + " --once " + dir_ + "/corpus.jobs";
  const std::pair<std::string, std::string> kBad[] = {
      {Tool("esdfuzz") + " --seeds abc", "--seeds"},
      {Tool("esdfuzz") + " --seeds 1 --seed-base 1x", "--seed-base"},
      {Tool("esdfuzz") + " --seeds 1 --jobs 2x", "--jobs"},
      {Tool("esdfuzz") + " --seeds 1 --time-cap abc", "--time-cap"},
      {synth + " --time-cap abc", "--time-cap"},
      {synth + " --time-cap -3", "--time-cap"},
      {synth + " --time-cap inf", "--time-cap"},
      {synth + " --seed 12abc", "--seed"},
      {synth + " --seed -1", "--seed"},
      {Tool("esdplay") + " " + prog + " " + exec + " --max-steps 10x",
       "--max-steps"},
      {run + " --seed 12abc", "--seed"},
      {run + " --input x=4z", "--input x"},
      {run + " --max-steps 5k", "--max-steps"},
      {Tool("esdcheck") + " " + prog + " --time-cap abc", "--time-cap"},
      {served + " --jobs 2x", "--jobs"},
      {served + " --threads 1x", "--threads"},
      {served + " --time-cap abc", "--time-cap"},
      // 2^44 MiB is 2^64 bytes: it used to wrap around to a zero budget.
      {served + " --solver-cache-mb 17592186044416", "--solver-cache-mb"},
  };
  for (const auto& [command, flag] : kBad) {
    RunResult r = ExpectOneLineFailure(command);
    EXPECT_EQ(r.exit_code, 2) << command;
    EXPECT_NE(r.stderr_text.find("error: " + flag + " must be"),
              std::string::npos)
        << command << "\nstderr was:\n" << r.stderr_text;
  }
  EXPECT_FALSE(FileExists(out));
  EXPECT_FALSE(FileExists(dump));
}

TEST_F(CliNegativeTest, EsdfuzzRejectsUnknownKind) {
  ExpectOneLineFailure(Tool("esdfuzz") + " --kind spinlock --seeds 1");
}

TEST_F(CliNegativeTest, InconsistentFlushRecordsAreOneLineReplayErrors) {
  // Flush records that cannot be faithfully re-applied (a flush step past
  // the end of the schedule, a flush for a store the thread never buffered)
  // are hard one-line errors — esdplay must never report "completed but the
  // bug did not manifest" for a file that misdescribes the program.
  struct BadFlush {
    const char* name;
    const char* body;
    const char* expect;
  };
  const BadFlush kBad[] = {
      {"flush_past_end",
       "execution v1\nbug assert-fail\nflush 1000 0 64\n",
       "past end of schedule"},
      {"flush_never_buffered",
       "execution v1\nbug assert-fail\nflush 0 0 64\n",
       "never-buffered store"},
      {"flush_duplicate",
       "execution v1\nbug assert-fail\nflush 3 0 64\nflush 3 0 64\n",
       "duplicate flush"},
  };
  for (const BadFlush& bad : kBad) {
    std::string path = dir_ + "/" + bad.name + ".esdx";
    WriteTo(path, bad.body);
    std::string command = Tool("esdplay") + " " + program_ + " " + path;
    RunResult r = RunCommand(command);
    EXPECT_GT(r.exit_code, 0) << command;
    EXPECT_LT(r.exit_code, 128) << command << " died on a signal";
    EXPECT_EQ(LineCount(r.stderr_text), 1u)
        << command << "\nstderr was:\n" << r.stderr_text;
    EXPECT_NE(r.stderr_text.find(bad.expect), std::string::npos)
        << command << "\nstderr was:\n" << r.stderr_text;
  }
}

TEST_F(CliNegativeTest, EsdservedNegativePaths) {
  // Unknown flag and missing manifest: the daemon exits before serving.
  ExpectOneLineFailure(Tool("esdserved") + " --wat");
  ExpectOneLineFailure(Tool("esdserved") + " --once " + dir_ +
                       "/absent.jobs");
  // A manifest naming unreadable inputs drops the job with a diagnostic but
  // the daemon itself finishes the batch cleanly (exit 0): one bad job must
  // not kill the service.
  std::string manifest = dir_ + "/bad_inputs.jobs";
  WriteTo(manifest, dir_ + "/absent.esd " + dir_ + "/absent.core\n");
  RunResult r = RunCommand(Tool("esdserved") + " --once " + manifest);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.stderr_text.find("dropped"), std::string::npos) << r.stderr_text;
}

TEST_F(CliNegativeTest, DedupPrivateInCooperativeModeWarnsOnce) {
  // Cooperative jobs > 1 (the default) always shares the fingerprint table,
  // so --dedup-private is ignored there: the combination must say so on
  // stderr instead of silently no-opping. The warning precedes program
  // loading, so a missing input still yields warning + one error line.
  std::string base = Tool("esdsynth") + " " + dir_ + "/absent.esd " + dir_ +
                     "/absent.core";
  RunResult warned = RunCommand(base + " --jobs 2 --dedup-private");
  EXPECT_GT(warned.exit_code, 0);
  EXPECT_NE(warned.stderr_text.find("--dedup-private is ignored in cooperative"),
            std::string::npos)
      << warned.stderr_text;
  EXPECT_EQ(LineCount(warned.stderr_text), 2u)
      << "expected exactly the warning plus the error line, got:\n"
      << warned.stderr_text;

  // With the racing portfolio the flag takes effect: no warning.
  RunResult racing = RunCommand(base + " --jobs 2 --dedup-private --race-portfolio");
  EXPECT_EQ(racing.stderr_text.find("ignored"), std::string::npos)
      << racing.stderr_text;
  EXPECT_EQ(LineCount(racing.stderr_text), 1u) << racing.stderr_text;

  // jobs == 1: the private table is the only table — no warning either.
  RunResult single = RunCommand(base + " --dedup-private");
  EXPECT_EQ(single.stderr_text.find("ignored"), std::string::npos)
      << single.stderr_text;
  EXPECT_EQ(LineCount(single.stderr_text), 1u) << single.stderr_text;
}

TEST_F(CliNegativeTest, FailedSynthesisLeavesNoPartialOutput) {
  std::string out = dir_ + "/never_written.esdx";
  RunResult r = RunCommand(Tool("esdsynth") + " " + program_ + " " + bad_core_ +
                    " -o " + out);
  EXPECT_GT(r.exit_code, 0);
  EXPECT_FALSE(FileExists(out))
      << "esdsynth left a partial output file after a failed run";
}

TEST_F(CliNegativeTest, MissingArgumentsPrintUsage) {
  // No-argument invocations are user exploration, not scripting mistakes:
  // they get the full usage text (many lines), still with a nonzero exit
  // so scripts cannot mistake it for success.
  for (const char* tool : {"esdsynth", "esdplay"}) {
    RunResult r = RunCommand(Tool(tool));
    EXPECT_EQ(r.exit_code, 2) << tool;
    EXPECT_NE(r.stderr_text.find("usage:"), std::string::npos) << tool;
  }
}

}  // namespace
