// The synthesis service end-to-end, in-process: the job queue's FIFO and
// drain behavior, and the Server's reuse ladder — cold search,
// stored-verdict short-circuit, a real search after a "restart" that flags
// the bug as a known duplicate from the journal alone and never reads a
// cache file an earlier version left behind, a patched module searched cold
// exactly as a one-shot synthesis, programs sharing a report text kept
// apart, an in-memory server answering repeats, a module's triage pairs
// counted once under concurrent jobs, a corrupted stored execution that
// must not be served, and a verdict and its triage that survive a hard
// kill.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "src/workloads/workloads.h"

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

// The execution text a one-shot synthesis (esdsynth with the same options)
// gives for `job`.
std::string OneShotExecText(const Job& job, const ServerOptions& options) {
  std::string error;
  std::shared_ptr<ir::Module> module =
      workloads::ParseProgram(job.module_text, &error);
  EXPECT_NE(module, nullptr) << error;
  if (module == nullptr) return "";
  auto dump = report::ParseCoreDump(*module, job.report_text, &error);
  EXPECT_TRUE(dump.has_value()) << error;
  if (!dump.has_value()) return "";
  core::SynthesisResult result =
      core::Synthesizer(module.get(), options.synthesis).Synthesize(*dump);
  EXPECT_TRUE(result.success) << result.failure_reason;
  return result.success ? replay::ExecutionFileToText(result.file) : "";
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
  }
  // The journal is the only file: no distance tables, solver answers or
  // fingerprint corpora are persisted.
  EXPECT_TRUE(FilesEndingIn(dir, ".esdc").empty());
  EXPECT_EQ(FilesEndingIn(dir, ""),
            std::vector<std::filesystem::path>{
                std::filesystem::path(dir) / "results.index"});

  // Rung 3: a restarted daemon answers from the persisted results index,
  // and its triage set holds the one reproduced record read at start.
  {
    Server server(BaseOptions(dir));
    JobResult cached = server.Process(job);
    ASSERT_TRUE(cached.ok);
    EXPECT_EQ(cached.source, "cache");
    EXPECT_EQ(cached.fingerprint, fingerprint);
    EXPECT_TRUE(server.TakeLoadErrors().empty());
    EXPECT_EQ(server.stats().solver_entries_preloaded, 0u);
    EXPECT_EQ(server.stats().corpus_preloaded, 1u);
  }
  EXPECT_TRUE(FilesEndingIn(dir, ".esdc").empty());

  // An upgrade leaves the distance-table, solver-cache and fingerprint-
  // corpus files of earlier versions behind. All three are hostile: the
  // distance file's row count asks for ~8 EB, the solver file's model value
  // does not fit in 64 bits, and the corpus file's record is not a
  // fingerprint. For this scenario the searched module digests like the
  // module itself, so each file carries the name and module line an earlier
  // version would have read.
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
  const std::string stale_fps_text = std::string("esdcache fps v1\nmodule ") +
                                     hex + "\nfp not-a-fingerprint\nend 1\n";
  const std::filesystem::path stale_fps_path =
      std::filesystem::path(dir) / (std::string(hex) + ".fps.esdc");
  for (const auto& [path, text] :
       {std::pair{stale_path, stale_text},
        std::pair{stale_solver_path, stale_solver_text},
        std::pair{stale_fps_path, stale_fps_text}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  // Rung 4: with verdict reuse off, the restarted daemon must actually
  // search, cold, and find the same execution; the journal's record flags
  // it as a known duplicate. No stale file is read, and no solver entry is
  // preloaded.
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
    EXPECT_EQ(stats.corpus_preloaded, 1u);
    EXPECT_EQ(stats.duplicate_bugs, 1u);
    EXPECT_TRUE(server.TakeLoadErrors().empty());
  }

  // Rung 5: the same report against a *patched* module is a new (report,
  // module) pair. It searches cold and finds exactly the execution a
  // one-shot synthesis of the patched module finds.
  {
    Server server(BaseOptions(dir));
    Job patched = job;
    patched.id = 2;
    patched.module_text +=
        "\nfunc @esd_service_patch_pad() : i32 {\nentry:\n  ret i32 0\n}\n";
    JobResult result = server.Process(patched);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.reproduced) << result.failure_reason;
    EXPECT_EQ(result.source, "cold");
    EXPECT_NE(result.module_digest, module_digest);
    EXPECT_EQ(result.exec_text, OneShotExecText(patched, BaseOptions(dir)));
    EXPECT_EQ(server.stats().incremental, 0u);
  }
  // No rung wrote an .esdc file: the only ones are the planted ones, and
  // none of them changed.
  std::vector<std::filesystem::path> esdc = FilesEndingIn(dir, ".esdc");
  std::sort(esdc.begin(), esdc.end());
  std::vector<std::filesystem::path> planted = {stale_path, stale_solver_path,
                                                stale_fps_path};
  std::sort(planted.begin(), planted.end());
  EXPECT_EQ(esdc, planted);
  EXPECT_EQ(ReadFile(stale_path), stale_text);
  EXPECT_EQ(ReadFile(stale_solver_path), stale_solver_text);
  EXPECT_EQ(ReadFile(stale_fps_path), stale_fps_text);
}

// Two different programs whose reports print byte-identically: the fuzz
// barrier-mismatch programs of seeds 326039 and 754591 as perfbench's
// service workload generates them (noise 8, 2 locks, guard depth 2). They
// are submitted A, B, A through one Server over a cache directory. B must
// be searched cold, as a one-shot synthesis of B would be, and the repeat
// of A answered from A's own record.
TEST(ServeServerTest, ProgramsSharingAReportTextAreSearchedApart) {
  std::string dir = ::testing::TempDir() + "/esd_serve_shared_report_test";
  std::filesystem::remove_all(dir);
  auto make = [](uint64_t id, uint64_t seed) {
    fuzz::GeneratorParams params;
    params.kind = fuzz::BugKind::kBarrierMismatch;
    params.seed = seed;
    params.noise_per_thread = 8;
    params.num_locks = 2;
    params.guard_depth = 2;
    return MakeJob(id, fuzz::Generate(params));
  };
  const Job a = make(1, 326039);
  const Job b = make(2, 754591);
  ASSERT_EQ(a.report_text, b.report_text);
  ASSERT_NE(a.module_text, b.module_text);

  Server server(BaseOptions(dir));
  JobResult first = server.Process(a);
  ASSERT_TRUE(first.ok && first.reproduced) << first.failure_reason;
  EXPECT_EQ(first.source, "cold");

  JobResult other = server.Process(b);
  ASSERT_TRUE(other.ok && other.reproduced) << other.failure_reason;
  EXPECT_EQ(other.source, "cold");
  EXPECT_NE(other.module_digest, first.module_digest);
  EXPECT_EQ(other.exec_text, OneShotExecText(b, BaseOptions(dir)));
  EXPECT_FALSE(other.duplicate_bug);

  JobResult repeat = server.Process(a);
  ASSERT_TRUE(repeat.ok && repeat.reproduced) << repeat.failure_reason;
  EXPECT_EQ(repeat.source, "cache");
  EXPECT_EQ(repeat.fingerprint, first.fingerprint);
  EXPECT_EQ(repeat.exec_text, first.exec_text);
  EXPECT_EQ(server.stats().incremental, 0u);
  EXPECT_EQ(server.stats().verdict_cache_hits, 1u);
}

// Without a cache directory the store lives in memory: an exact repeat is
// still answered from the stored verdict and flagged as the known bug.
TEST(ServeServerTest, InMemoryServerAnswersExactRepeats) {
  fuzz::GeneratedProgram program = Scenario();
  Job job = MakeJob(1, program);
  Server server(BaseOptions(""));
  JobResult cold = server.Process(job);
  ASSERT_TRUE(cold.ok && cold.reproduced) << cold.failure_reason;
  EXPECT_EQ(cold.source, "cold");
  EXPECT_FALSE(cold.duplicate_bug);

  JobResult repeat = server.Process(job);
  ASSERT_TRUE(repeat.ok && repeat.reproduced) << repeat.failure_reason;
  EXPECT_EQ(repeat.source, "cache");
  EXPECT_TRUE(repeat.duplicate_bug);
  EXPECT_EQ(repeat.fingerprint, cold.fingerprint);
  EXPECT_EQ(repeat.exec_text, cold.exec_text);
  EXPECT_EQ(server.stats().verdict_cache_hits, 1u);
  EXPECT_TRUE(server.TakeLoadErrors().empty());
}

// Concurrent jobs on one module share its triage pairs, which are counted
// once, when the store loads: 8 workers search the same job at once, with
// verdict reuse off, over a journal that already holds the job's record.
// Every one of them finds the known bug.
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
  ASSERT_TRUE(std::filesystem::exists(dir + "/results.index"));

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
// be served: one digit of an input value is flipped in results.index, and
// the restarted daemon must answer with an execution that still reproduces
// the bug, reporting the damage once.
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
  // Errors are drained: a second call reports nothing new.
  EXPECT_TRUE(restarted.TakeLoadErrors().empty());
}

// Each verdict and its triage fingerprint are on disk when Process
// returns. A copy of the cache directory taken while the Server is still
// alive — no destructor: what a SIGKILL leaves — answers the same job from
// the stored verdict, and with reuse off flags its search as the known bug.
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

  ServerOptions reuse_off = BaseOptions(killed);
  reuse_off.reuse_results = false;
  Server searching(reuse_off);
  JobResult again = searching.Process(job);
  ASSERT_TRUE(again.ok && again.reproduced) << again.failure_reason;
  EXPECT_EQ(again.source, "cold");
  EXPECT_EQ(again.fingerprint, cold.fingerprint);
  EXPECT_TRUE(again.duplicate_bug);
  EXPECT_EQ(searching.stats().corpus_preloaded, 1u);
  EXPECT_TRUE(searching.TakeLoadErrors().empty());
}

}  // namespace
}  // namespace esd::serve
