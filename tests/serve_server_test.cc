// The synthesis service end-to-end, in-process: the job queue's FIFO and
// drain behavior, and the Server's reuse ladder — cold search,
// stored-verdict short-circuit that loads no per-module corpus, a real
// search after a "restart" that flags the bug as a known duplicate and
// never reads a distance-table or solver-cache file an earlier version
// left behind, incremental re-synthesis of a patched module seeded by the
// prior execution, a module's corpus counted once when concurrent jobs load
// it, survival of a corrupted corpus file mid-service, a corrupted stored
// execution that must not be served, and a verdict that survives a hard
// kill.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
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

// Whichever worker asks gets the oldest job; after Close the queue still
// hands out what it holds, in order, then reports shutdown.
TEST(JobQueueTest, FifoAcrossWorkersThenDrainAfterClose) {
  JobQueue queue;
  for (uint64_t i = 0; i < 6; ++i) {
    Job job;
    job.id = i;
    ASSERT_TRUE(queue.Push(job));
  }
  // Three workers, one after another, each take one job.
  std::vector<uint64_t> order;
  for (int w = 0; w < 3; ++w) {
    std::thread worker([&queue, &order] {
      auto job = queue.Pop();
      ASSERT_TRUE(job.has_value());
      order.push_back(job->id);
    });
    worker.join();
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2}));

  // Closed with three jobs left: a fourth worker drains them in order.
  queue.Close();
  Job late;
  EXPECT_FALSE(queue.Push(late));
  std::thread drainer([&queue, &order] {
    while (auto job = queue.Pop()) {
      order.push_back(job->id);
    }
  });
  drainer.join();
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(JobQueueTest, CloseWakesBlockedWorkers) {
  JobQueue queue;
  std::vector<std::thread> workers;
  std::atomic<int> drained{0};
  std::atomic<int> popped{0};
  for (size_t w = 0; w < 2; ++w) {
    workers.emplace_back([&queue, &drained, &popped] {
      while (queue.Pop().has_value()) {
        popped.fetch_add(1);
      }
      drained.fetch_add(1);
    });
  }
  Job job;
  queue.Push(job);
  queue.Close();
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_EQ(drained.load(), 2);
  EXPECT_EQ(popped.load(), 1);
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
    // ~Server flushes the module's corpus to disk.
  }
  // Neither distance tables nor solver answers are persisted.
  EXPECT_TRUE(FilesEndingIn(dir, ".dist.esdc").empty());
  EXPECT_TRUE(FilesEndingIn(dir, ".solver.esdc").empty());

  // Rung 3: a restarted daemon answers from the persisted results index,
  // without loading the module's corpus.
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
  EXPECT_TRUE(FilesEndingIn(dir, ".solver.esdc").empty());

  // An upgrade leaves the distance-table and solver-cache files of earlier
  // versions behind. Both are hostile: the distance file's row count asks
  // for ~8 EB, and the solver file's model value does not fit in 64 bits.
  // For this scenario the searched module digests like the module itself,
  // so each file carries the name and module line an earlier version would
  // have read.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(module_digest));
  const std::string stale_text = std::string("esdcache dist v1\nmodule ") +
                                 hex +
                                 "\nfunc 0 5\nic 999999999999999999 1\n";
  ASSERT_EQ(stale_text.size(), 74u);
  const std::filesystem::path stale_path =
      std::filesystem::path(dir) / (std::string(hex) + ".dist.esdc");
  const std::string stale_solver_text =
      std::string("esdcache solver v1\nmodule ") + hex +
      "\nq 0000000000000001 sat-model\nv 1 99999999999999999999999\n"
      "end 1\n";
  const std::filesystem::path stale_solver_path =
      std::filesystem::path(dir) / (std::string(hex) + ".solver.esdc");
  for (const auto& [path, text] :
       {std::pair{stale_path, stale_text},
        std::pair{stale_solver_path, stale_solver_text}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  // Rung 4: with verdict reuse off, the restarted daemon must actually
  // search, cold, and find the same execution; the persisted corpus flags
  // it as a known duplicate. Neither stale file is read, and no solver
  // entry is preloaded.
  {
    ServerOptions options = BaseOptions(dir);
    options.reuse_results = false;
    Server server(options);
    JobResult again = server.Process(job);
    ASSERT_TRUE(again.ok) << again.error;
    ASSERT_TRUE(again.reproduced) << again.failure_reason;
    EXPECT_EQ(again.source, "cold");
    EXPECT_EQ(again.fingerprint, fingerprint);
    EXPECT_TRUE(again.duplicate_bug);
    Server::Stats stats = server.stats();
    EXPECT_EQ(stats.solver_entries_preloaded, 0u);
    EXPECT_GT(stats.corpus_preloaded, 0u);
    EXPECT_EQ(stats.duplicate_bugs, 1u);
    EXPECT_TRUE(server.TakeLoadErrors().empty());
  }
  EXPECT_EQ(ReadFile(stale_path), stale_text);
  EXPECT_EQ(ReadFile(stale_solver_path), stale_solver_text);

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
  // No rung wrote a solver file: the only one is the planted one.
  EXPECT_EQ(FilesEndingIn(dir, ".solver.esdc"),
            std::vector<std::filesystem::path>{stale_solver_path});
}

// Concurrent jobs on one module load its persisted corpus once, and only
// that load is counted: 8 workers search the same job at once, with verdict
// reuse off, over a directory that holds the module's one-fingerprint
// corpus.
TEST(ServeServerTest, ConcurrentJobsCountAModulesCorpusOnce) {
  std::string dir = ::testing::TempDir() + "/esd_serve_concurrent_test";
  std::filesystem::remove_all(dir);
  fuzz::GeneratedProgram program = Scenario();
  Job job = MakeJob(1, program);
  std::string fingerprint;
  {
    Server server(BaseOptions(dir));
    JobResult cold = server.Process(job);
    ASSERT_TRUE(cold.ok && cold.reproduced) << cold.failure_reason;
    fingerprint = cold.fingerprint;
  }
  ASSERT_EQ(FilesEndingIn(dir, ".fps.esdc").size(), 1u);

  ServerOptions options = BaseOptions(dir);
  options.reuse_results = false;
  Server server(options);
  constexpr int kWorkers = 8;
  std::vector<JobResult> results(kWorkers);
  std::latch start(kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      start.arrive_and_wait();
      results[w] = server.Process(job);
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.ok && r.reproduced) << r.error << r.failure_reason;
    EXPECT_EQ(r.fingerprint, fingerprint);
    EXPECT_TRUE(r.duplicate_bug);
  }
  EXPECT_EQ(server.stats().corpus_preloaded, 1u);
  EXPECT_EQ(server.stats().duplicate_bugs, static_cast<uint64_t>(kWorkers));
  EXPECT_TRUE(server.TakeLoadErrors().empty());
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
  // The externs preamble parsed ahead of a module without its own does not
  // shift the line its error names.
  Job undefined_reg = bad_module;
  undefined_reg.module_text =
      "func @main() : i32 {\nentry:\n  %v = add %nope, i32 1\n"
      "  ret i32 0\n}\n";
  JobResult r1b = server.Process(undefined_reg);
  EXPECT_FALSE(r1b.ok);
  EXPECT_NE(r1b.error.find("line 3: use of undefined register %nope"),
            std::string::npos)
      << r1b.error;

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

  // Corrupt every corpus file — a torn disk write while the daemon was
  // down.
  const std::vector<std::filesystem::path> corpus_files =
      FilesEndingIn(dir, ".fps.esdc");
  ASSERT_FALSE(corpus_files.empty());
  for (const std::filesystem::path& path : corpus_files) {
    std::ofstream out(path, std::ios::trunc);
    out << "esdcache fps v1\nmodule garbage\n";
  }

  // The restarted daemon quarantines the file, reports it once, and still
  // produces the verdict (a search that no longer knows the bug).
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
