// The synthesis service end-to-end, in-process: the sharded job queue's
// affinity/stealing/drain behavior, and the Server's reuse ladder — cold
// search, stored-verdict short-circuit that loads no per-module cache, warm
// search over reloaded solver caches after a "restart" that never reads a
// distance-table file an earlier version left behind, incremental
// re-synthesis of a patched module seeded by the prior execution, survival
// of a corrupted cache file mid-service, a corrupted stored execution that
// must not be served, and a verdict that survives a hard kill.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/replay/execution_file.h"
#include "src/replay/replayer.h"
#include "src/report/coredump.h"
#include "src/serve/job_queue.h"
#include "src/serve/server.h"

namespace esd::serve {
namespace {

TEST(JobQueueTest, AffinityRoutingThenDrainAfterClose) {
  JobQueue queue(4);
  // Worker 2's home shard gets both jobs for digest 2; worker 0 gets one.
  for (uint64_t i = 0; i < 2; ++i) {
    Job job;
    job.id = i;
    ASSERT_TRUE(queue.Push(job, /*module_digest=*/2));
  }
  Job other;
  other.id = 99;
  ASSERT_TRUE(queue.Push(other, /*module_digest=*/4));  // 4 % 4 = shard 0.

  // The home worker drains its own shard first, in FIFO order.
  auto first = queue.Pop(2);
  auto second = queue.Pop(2);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->id, 0u);
  EXPECT_EQ(second->id, 1u);
  // With its own shard empty, worker 2 steals worker 0's job.
  auto stolen = queue.Pop(2);
  ASSERT_TRUE(stolen);
  EXPECT_EQ(stolen->id, 99u);
  EXPECT_EQ(queue.stats().stolen, 1u);
  EXPECT_EQ(queue.stats().pushed, 3u);
  EXPECT_EQ(queue.stats().popped, 3u);

  queue.Close();
  EXPECT_FALSE(queue.Pop(2).has_value());
  Job late;
  EXPECT_FALSE(queue.Push(late, 0));
}

TEST(JobQueueTest, CloseWakesBlockedWorkers) {
  JobQueue queue(2);
  std::vector<std::thread> workers;
  std::atomic<int> drained{0};
  for (size_t w = 0; w < 2; ++w) {
    workers.emplace_back([&queue, &drained, w] {
      while (queue.Pop(w).has_value()) {
      }
      drained.fetch_add(1);
    });
  }
  Job job;
  queue.Push(job, 0);
  queue.Close();
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_EQ(drained.load(), 2);
  EXPECT_EQ(queue.stats().popped, 1u);
}

// ---- Server reuse ladder ----------------------------------------------------

// One generated scenario turned into a service job, the way esdfuzz
// --emit-corpus and esdserved consume them.
Job MakeJob(uint64_t id, const fuzz::GeneratedProgram& program) {
  Job job;
  job.id = id;
  job.module_text = fuzz::ReproText(program);
  auto dump = fuzz::MakeReport(program);
  EXPECT_TRUE(dump.has_value());
  job.report_text = report::CoreDumpToText(*program.module, *dump);
  return job;
}

fuzz::GeneratedProgram Scenario() {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kDeadlock;
  params.seed = 3;
  return fuzz::Generate(params);
}

ServerOptions BaseOptions(const std::string& cache_dir) {
  ServerOptions options;
  options.cache_dir = cache_dir;
  options.synthesis.time_cap_seconds = 60.0;
  return options;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Every file in `dir` whose name ends in `suffix`.
std::vector<std::filesystem::path> FilesEndingIn(const std::string& dir,
                                                 const std::string& suffix) {
  std::vector<std::filesystem::path> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(suffix)) {
      found.push_back(entry.path());
    }
  }
  return found;
}

TEST(ServeServerTest, ReuseLadderAcrossRestarts) {
  std::string dir = ::testing::TempDir() + "/esd_serve_server_test";
  std::filesystem::remove_all(dir);
  fuzz::GeneratedProgram program = Scenario();
  Job job = MakeJob(1, program);

  std::string fingerprint;
  uint64_t module_digest = 0;
  // Rung 1: cold search in a fresh daemon.
  {
    Server server(BaseOptions(dir));
    JobResult cold = server.Process(job);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_TRUE(cold.reproduced) << cold.failure_reason;
    EXPECT_EQ(cold.source, "cold");
    EXPECT_FALSE(cold.fingerprint.empty());
    EXPECT_FALSE(cold.exec_text.empty());
    fingerprint = cold.fingerprint;
    module_digest = cold.module_digest;

    // Rung 2: the identical (report, module) pair short-circuits to the
    // stored verdict without searching.
    JobResult cached = server.Process(job);
    ASSERT_TRUE(cached.ok);
    EXPECT_EQ(cached.source, "cache");
    EXPECT_TRUE(cached.reproduced);
    EXPECT_EQ(cached.fingerprint, fingerprint);
    EXPECT_EQ(server.stats().verdict_cache_hits, 1u);
    // ~Server flushes every cache to disk.
  }
  // Distance tables are not persisted.
  EXPECT_TRUE(FilesEndingIn(dir, ".dist.esdc").empty());

  // Rung 3: a restarted daemon answers from the persisted results index,
  // without loading the module's solver cache or corpus.
  {
    Server server(BaseOptions(dir));
    JobResult cached = server.Process(job);
    ASSERT_TRUE(cached.ok);
    EXPECT_EQ(cached.source, "cache");
    EXPECT_EQ(cached.fingerprint, fingerprint);
    EXPECT_TRUE(server.TakeLoadErrors().empty());
    EXPECT_EQ(server.stats().solver_entries_preloaded, 0u);
    EXPECT_EQ(server.stats().corpus_preloaded, 0u);
  }

  // An upgrade leaves the distance-table file of an earlier version behind.
  // This one is hostile: its row count asks for ~8 EB. For this scenario
  // the searched module digests like the module itself, so the file carries
  // the name and module line an earlier version would have read.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(module_digest));
  const std::string stale_text = std::string("esdcache dist v1\nmodule ") +
                                 hex +
                                 "\nfunc 0 5\nic 999999999999999999 1\n";
  ASSERT_EQ(stale_text.size(), 74u);
  const std::filesystem::path stale_path =
      std::filesystem::path(dir) / (std::string(hex) + ".dist.esdc");
  {
    std::ofstream out(stale_path, std::ios::binary | std::ios::trunc);
    out << stale_text;
  }

  // Rung 4: with verdict reuse off, the restarted daemon must actually
  // search — but warm: it hits the preloaded solver entries, and the corpus
  // flags the synthesized bug as a known duplicate. The stale distance file
  // is never read.
  {
    ServerOptions options = BaseOptions(dir);
    options.reuse_results = false;
    Server server(options);
    JobResult warm = server.Process(job);
    ASSERT_TRUE(warm.ok) << warm.error;
    ASSERT_TRUE(warm.reproduced) << warm.failure_reason;
    EXPECT_EQ(warm.source, "warm");
    EXPECT_EQ(warm.fingerprint, fingerprint);
    EXPECT_TRUE(warm.duplicate_bug);
    EXPECT_GT(warm.solver_shared_hits, 0u);
    Server::Stats stats = server.stats();
    EXPECT_GT(stats.solver_entries_preloaded, 0u);
    EXPECT_GT(stats.corpus_preloaded, 0u);
    EXPECT_EQ(stats.duplicate_bugs, 1u);
    EXPECT_TRUE(server.TakeLoadErrors().empty());
  }
  EXPECT_EQ(ReadFile(stale_path), stale_text);

  // Rung 5: the same report against a *patched* module finds the stored
  // execution and seeds the search from its schedule.
  {
    Server server(BaseOptions(dir));
    Job patched = job;
    patched.id = 2;
    patched.module_text +=
        "\nfunc @esd_service_patch_pad() : i32 {\nentry:\n  ret i32 0\n}\n";
    JobResult incremental = server.Process(patched);
    ASSERT_TRUE(incremental.ok) << incremental.error;
    ASSERT_TRUE(incremental.reproduced) << incremental.failure_reason;
    EXPECT_EQ(incremental.source, "incremental");
    EXPECT_NE(incremental.module_digest, 0u);
    EXPECT_EQ(server.stats().incremental, 1u);
  }
}

TEST(ServeServerTest, MalformedInputsFailSoftly) {
  Server server(BaseOptions(""));  // In-memory only.
  Job bad_module;
  bad_module.id = 1;
  bad_module.module_text = "func @main( {{{\n";
  bad_module.report_text = "coredump v1\nbug deadlock\n";
  JobResult r1 = server.Process(bad_module);
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());

  fuzz::GeneratedProgram program = Scenario();
  Job bad_report = MakeJob(2, program);
  bad_report.report_text = "this is not a coredump\n";
  JobResult r2 = server.Process(bad_report);
  EXPECT_FALSE(r2.ok);
  EXPECT_FALSE(r2.error.empty());
  // The daemon is still serving: a good job afterwards succeeds.
  JobResult r3 = server.Process(MakeJob(3, program));
  EXPECT_TRUE(r3.ok) << r3.error;
  EXPECT_TRUE(r3.reproduced);
}

TEST(ServeServerTest, CorruptedCacheFileMidServiceIsQuarantinedNotFatal) {
  std::string dir = ::testing::TempDir() + "/esd_serve_corrupt_test";
  std::filesystem::remove_all(dir);
  fuzz::GeneratedProgram program = Scenario();
  Job job = MakeJob(1, program);
  {
    Server server(BaseOptions(dir));
    JobResult cold = server.Process(job);
    ASSERT_TRUE(cold.ok && cold.reproduced);
  }

  // Corrupt every solver-cache file — a torn disk write while the daemon
  // was down.
  const std::vector<std::filesystem::path> solver_files =
      FilesEndingIn(dir, ".solver.esdc");
  ASSERT_FALSE(solver_files.empty());
  for (const std::filesystem::path& path : solver_files) {
    std::ofstream out(path, std::ios::trunc);
    out << "esdcache solver v1\nmodule garbage\n";
  }

  // The restarted daemon quarantines the file, reports it once, and still
  // produces the verdict (a search without the lost solver entries).
  ServerOptions options = BaseOptions(dir);
  options.reuse_results = false;
  Server server(options);
  JobResult result = server.Process(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.reproduced) << result.failure_reason;
  std::vector<std::string> errors = server.TakeLoadErrors();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("quarantined"), std::string::npos) << errors[0];
  // Errors are drained: a second call reports nothing new.
  EXPECT_TRUE(server.TakeLoadErrors().empty());
  bool quarantine_exists = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().string().find(".quarantined") != std::string::npos) {
      quarantine_exists = true;
    }
  }
  EXPECT_TRUE(quarantine_exists);
  // The flush on shutdown regenerates a clean cache: the next daemon loads
  // it without errors.
  server.FlushAll();
  Server reloaded(options);
  JobResult again = reloaded.Process(job);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(reloaded.TakeLoadErrors().empty());
}

// Whether `exec_text` parses and strictly replays the program's planted bug.
bool StrictlyReplays(const fuzz::GeneratedProgram& program,
                     const std::string& exec_text) {
  std::string error;
  auto file = replay::ParseExecutionFile(exec_text, &error);
  if (!file.has_value()) {
    return false;
  }
  replay::ReplayResult strict =
      replay::Replay(*program.module, *file, replay::ReplayMode::kStrict);
  return strict.bug_reproduced && strict.bug.kind == program.expected_kind;
}

// A stored execution whose bytes changed on disk must cost a search, never
// be served: one digit of an input value is flipped in whichever cache file
// holds the text, and the restarted daemon must answer with an execution
// that still reproduces the bug, reporting the damage once.
TEST(ServeServerTest, CorruptedStoredExecutionIsNotServed) {
  std::string dir = ::testing::TempDir() + "/esd_serve_corrupt_exec_test";
  std::filesystem::remove_all(dir);
  fuzz::GeneratedProgram program = Scenario();
  Job job = MakeJob(1, program);
  std::string exec_text;
  {
    Server server(BaseOptions(dir));
    JobResult cold = server.Process(job);
    ASSERT_TRUE(cold.ok && cold.reproduced) << cold.failure_reason;
    exec_text = cold.exec_text;
  }
  ASSERT_TRUE(StrictlyReplays(program, exec_text));

  const size_t input = exec_text.find("\ninput ");
  ASSERT_NE(input, std::string::npos) << exec_text;
  const size_t digit = exec_text.find('\n', input + 1) - 1;
  ASSERT_TRUE(exec_text[digit] >= '0' && exec_text[digit] <= '9');
  std::string corrupted = exec_text;
  corrupted[digit] = static_cast<char>('0' + (exec_text[digit] - '0' + 1) % 10);
  ASSERT_FALSE(StrictlyReplays(program, corrupted));

  bool flipped = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes = ReadFile(entry.path());
    const size_t at = bytes.find(exec_text);
    if (at == std::string::npos) continue;
    bytes[at + digit] = corrupted[digit];
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << bytes;
    flipped = true;
    break;
  }
  ASSERT_TRUE(flipped);

  Server restarted(BaseOptions(dir));
  JobResult result = restarted.Process(job);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.reproduced) << result.failure_reason;
  EXPECT_NE(result.source, "cache");
  EXPECT_TRUE(StrictlyReplays(program, result.exec_text)) << result.exec_text;
  std::vector<std::string> errors = restarted.TakeLoadErrors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("quarantined"), std::string::npos) << errors[0];
}

// Each verdict is on disk when Process returns. A copy of the cache
// directory taken while the Server is still alive — no flush, no destructor:
// what a SIGKILL leaves — answers the same job from the stored verdict.
TEST(ServeServerTest, VerdictSurvivesHardKill) {
  std::string dir = ::testing::TempDir() + "/esd_serve_kill_test";
  std::string killed = dir + "_copy";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(killed);
  fuzz::GeneratedProgram program = Scenario();
  Job job = MakeJob(1, program);

  Server server(BaseOptions(dir));
  JobResult cold = server.Process(job);
  ASSERT_TRUE(cold.ok && cold.reproduced) << cold.failure_reason;
  std::filesystem::copy(dir, killed, std::filesystem::copy_options::recursive);

  Server restarted(BaseOptions(killed));
  JobResult cached = restarted.Process(job);
  ASSERT_TRUE(cached.ok) << cached.error;
  EXPECT_EQ(cached.source, "cache");
  EXPECT_TRUE(cached.reproduced);
  EXPECT_EQ(cached.fingerprint, cold.fingerprint);
  EXPECT_EQ(cached.exec_text, cold.exec_text);
  EXPECT_TRUE(restarted.TakeLoadErrors().empty());
}

}  // namespace
}  // namespace esd::serve
