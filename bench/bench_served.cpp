// Benchmarks the synthesis service across a restart: a generated corpus is
// submitted to a cold daemon (empty cache directory), then the daemon is
// "restarted" (a fresh Server over the same directory, verdict reuse off so
// every job really searches) and the corpus is submitted again. The second
// pass, called "warm", must agree with the cold pass on every verdict and
// fingerprint, and the fingerprint corpus it read back from disk must flag
// every reproduced job as a known duplicate. Its searches reuse nothing
// else: the service persists no solver answers or distance tables.
//
// Emits BENCH_served.json with two perf-trajectory records, `served-cold`
// and `served-warm`, whose states_per_sec field carries jobs/second (the
// service's unit of work).
//
// Environment knob:
//   ESD_SERVED_SEEDS  corpus size (default 6).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/report/coredump.h"
#include "src/serve/server.h"

using namespace esd;

namespace {

struct PassOutcome {
  uint64_t reproduced = 0;
  double seconds = 0.0;
  std::vector<std::string> fingerprints;
  serve::Server::Stats stats;
};

PassOutcome RunPass(const std::string& cache_dir, bool reuse_results,
                    const std::vector<serve::Job>& jobs) {
  serve::ServerOptions options;
  options.cache_dir = cache_dir;
  options.reuse_results = reuse_results;
  options.synthesis.time_cap_seconds = 120.0;
  serve::Server server(options);
  PassOutcome outcome;
  auto start = std::chrono::steady_clock::now();
  for (const serve::Job& job : jobs) {
    serve::JobResult result = server.Process(job);
    if (!result.ok) {
      std::fprintf(stderr, "FAIL: job %llu: %s\n",
                   static_cast<unsigned long long>(job.id),
                   result.error.c_str());
      std::exit(1);
    }
    if (result.reproduced) {
      ++outcome.reproduced;
    }
    outcome.fingerprints.push_back(result.fingerprint);
  }
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  outcome.stats = server.stats();
  return outcome;  // ~Server flushes the caches to cache_dir.
}

}  // namespace

int main() {
  const char* seeds_env = std::getenv("ESD_SERVED_SEEDS");
  uint64_t seeds =
      seeds_env != nullptr ? std::strtoull(seeds_env, nullptr, 10) : 6;
  std::string git_rev = bench::GitRev();

  // The corpus: mixed planted-bug kinds, fixed seeds, the same jobs the
  // esdserved daemon would read from an esdfuzz --emit-corpus manifest.
  const fuzz::BugKind kKinds[] = {fuzz::BugKind::kDeadlock,
                                  fuzz::BugKind::kRace, fuzz::BugKind::kCrash};
  std::vector<serve::Job> jobs;
  for (uint64_t i = 0; i < seeds; ++i) {
    fuzz::GeneratorParams params;
    params.kind = kKinds[i % (sizeof(kKinds) / sizeof(kKinds[0]))];
    params.seed = 20'000 + i;
    // Heavier than the fuzz defaults: the input-mix/branch noise puts real
    // work into the solver. Kept as it is so the recorded trajectory stays
    // comparable with its committed baseline.
    params.noise_per_thread = 8;
    fuzz::GeneratedProgram program = fuzz::Generate(params);
    serve::Job job;
    job.id = i + 1;
    job.module_text = fuzz::ReproText(program);
    auto dump = fuzz::MakeReport(program);
    if (!dump.has_value()) {
      std::fprintf(stderr, "FAIL: seed %llu: no report\n",
                   static_cast<unsigned long long>(params.seed));
      return 1;
    }
    job.report_text = report::CoreDumpToText(*program.module, *dump);
    jobs.push_back(std::move(job));
  }

  std::string cache_dir =
      (std::filesystem::temp_directory_path() / "esd_bench_served_cache")
          .string();
  std::filesystem::remove_all(cache_dir);

  // Best-of-N measurement, same discipline as MeasureTrajectory
  // (bench_common.h): a single cold+warm cycle runs in tens of
  // milliseconds, where scheduler preemption swings throughput by ±40%,
  // and interference only ever makes a pass slower — so each repeat wipes
  // the cache directory, runs cold then warm, and the fastest observed
  // pass of each kind is the sample. Calibration batches interleave with
  // the repeats so the CI gate can cancel machine speed.
  constexpr int kRepeats = 5;
  PassOutcome cold, warm;
  double calib_best = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    std::filesystem::remove_all(cache_dir);
    double calib = bench::CalibBatchSeconds();
    PassOutcome c = RunPass(cache_dir, /*reuse_results=*/true, jobs);
    PassOutcome w = RunPass(cache_dir, /*reuse_results=*/false, jobs);
    if (r == 0 || c.seconds < cold.seconds) {
      cold = std::move(c);
    }
    if (r == 0 || w.seconds < warm.seconds) {
      warm = std::move(w);
    }
    if (r == 0 || calib < calib_best) {
      calib_best = calib;
    }
  }
  std::filesystem::remove_all(cache_dir);

  double calib_ops =
      calib_best > 0.0 ? static_cast<double>(1 << 16) / calib_best : 0.0;

  std::printf("pass   jobs  repro  sec      jobs/s   dup\n");
  auto row = [&](const char* name, const PassOutcome& p) {
    std::printf("%-6s %4llu  %5llu  %-8.3f %-8.2f %llu\n", name,
                static_cast<unsigned long long>(jobs.size()),
                static_cast<unsigned long long>(p.reproduced), p.seconds,
                p.seconds > 0 ? jobs.size() / p.seconds : 0.0,
                static_cast<unsigned long long>(p.stats.duplicate_bugs));
  };
  row("cold", cold);
  row("warm", warm);

  // Correctness gates: same verdicts, same executions, and the warm pass
  // must recognize every bug from the persisted corpus.
  bool ok = true;
  if (warm.reproduced != cold.reproduced ||
      warm.fingerprints != cold.fingerprints) {
    std::fprintf(stderr, "FAIL: warm pass disagrees with cold pass\n");
    ok = false;
  }
  if (warm.stats.duplicate_bugs != warm.reproduced) {
    std::fprintf(stderr,
                 "FAIL: persisted corpus missed a known fingerprint "
                 "(%llu duplicates, %llu reproduced)\n",
                 static_cast<unsigned long long>(warm.stats.duplicate_bugs),
                 static_cast<unsigned long long>(warm.reproduced));
    ok = false;
  }

  std::vector<bench::BenchRecord> records;
  for (const auto& [name, pass] :
       {std::pair<const char*, const PassOutcome*>{"served-cold", &cold},
        {"served-warm", &warm}}) {
    bench::BenchRecord rec;
    rec.workload = name;
    rec.states_per_sec =
        pass->seconds > 0 ? jobs.size() / pass->seconds : 0.0;
    rec.calib_ops_per_sec = calib_ops;
    rec.git_rev = git_rev;
    records.push_back(std::move(rec));
  }
  if (auto path = bench::WriteBenchJson("served", records)) {
    std::printf("bench_served: wrote %s\n", path->c_str());
  }
  std::printf("bench_served: warm/cold speedup %.2fx\n",
              warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0);
  return ok ? 0 : 1;
}
