// Benchmarks the incremental constraint-solving pipeline (independence
// slicing -> caches -> range discharge -> assumption-based incremental SAT)
// on solver-heavy deadlock and race synthesis workloads.
//
// Both workloads put multiplication guards over symbolic inputs inside the
// racing threads, so every explored interleaving re-asks nontrivial
// satisfiability questions: exactly the query stream §5.1 says dominates
// synthesis time. For every (workload, jobs, mode) cell the bench runs full
// synthesis and reports SAT calls, conflicts, propagations and wall clock;
// each successful run's execution file is verified by deterministic strict
// playback, so a faster pipeline only counts if the synthesized executions
// remain valid. Modes:
//
//   off   slicing, incremental SAT and the shared cache disabled
//         (per-query one-shot solving; the range stage stays on)
//   on    the full pipeline (the default configuration)
//   priv  jobs > 1 only: pipeline on, but per-worker caches instead of the
//         shared portfolio cache
//
// The process exits nonzero if any synthesized execution fails to replay,
// if the pipeline reduces SAT conflicts *and* wall clock by less than 25%
// on the deterministic jobs == 1 runs (the acceptance bar: either metric
// clearing 25% passes), or if the jobs > 1 shared-cache row reports zero
// cross-worker hits.
//
// Environment knobs:
//   ESD_BENCH_JOBS    worker count for the parallel rows (default 4).
//   ESD_BENCH_CAP_S   per-run time cap in seconds (default 10).
//   ESD_BENCH_SMOKE   nonzero: run everything but skip the gates (CI smoke).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/arith_workloads.h"
#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/synthesizer.h"
#include "src/replay/replayer.h"

using namespace esd;

namespace {

struct BenchCase {
  std::string name;
  std::shared_ptr<ir::Module> module;
  report::CoreDump dump;
  bool enforce_bar = false;  // >= 25% conflicts-or-wall on jobs == 1.
};

struct Mode {
  const char* name;
  bool pipeline;
  bool cache_shared;
};

struct Cell {
  bool success = false;
  bool replayed = false;
  double seconds = 0.0;
  solver::ConstraintSolver::Stats solver;
};

Cell RunCell(const BenchCase& c, int jobs, const Mode& mode, double cap) {
  core::SynthesisOptions options;
  options.time_cap_seconds = cap;
  options.jobs = static_cast<size_t>(jobs);
  options.solver_slice = mode.pipeline;
  options.solver_incremental = mode.pipeline;
  options.solver_cache_shared = mode.cache_shared;
  core::Synthesizer synthesizer(c.module.get(), options);
  core::SynthesisResult result = synthesizer.Synthesize(c.dump);

  Cell cell;
  cell.success = result.success;
  cell.seconds = result.seconds;
  cell.solver = result.solver;
  if (result.success) {
    replay::ReplayResult r =
        replay::Replay(*c.module, result.file, replay::ReplayMode::kStrict);
    cell.replayed = r.completed && r.bug_reproduced;
  }
  return cell;
}

int MaxJobs() {
  const char* env = std::getenv("ESD_BENCH_JOBS");
  int jobs = env != nullptr ? std::atoi(env) : 4;
  return jobs < 2 ? 2 : jobs;
}

bool SmokeMode() {
  const char* env = std::getenv("ESD_BENCH_SMOKE");
  return env != nullptr && std::atoi(env) != 0;
}

}  // namespace

int main() {
  double cap = bench::CapSeconds();
  int max_jobs = MaxJobs();
  bool smoke = SmokeMode();

  std::vector<BenchCase> cases;
  {
    auto module = bench::DeadlockArithModule();
    auto dump = workloads::CaptureDump(*module, bench::DeadlockArithTrigger());
    if (!dump.has_value()) {
      std::fprintf(stderr, "deadlock-arith: trigger did not manifest the bug\n");
      return 1;
    }
    cases.push_back(BenchCase{"deadlock-arith", module, *dump, true});
  }
  {
    auto module = bench::RaceArithModule();
    cases.push_back(
        BenchCase{"race-arith", module, workloads::AssertSiteDump(*module), true});
  }

  std::printf("Incremental solver pipeline (slicing + caches + assumption "
              "SAT) vs. one-shot solving (cap %.0fs%s)\n\n",
              cap, smoke ? ", smoke: gates skipped" : "");
  std::printf("%-15s | %-4s | %-4s | %-7s | %-9s | %-10s | %-7s | %-8s | %s\n",
              "Workload", "jobs", "mode", "SATcall", "conflicts",
              "propagate", "shared", "wall (s)", "replay");
  std::printf("----------------+------+------+---------+-----------+------------+"
              "---------+----------+-------\n");

  const Mode kOff = {"off", false, false};
  const Mode kOn = {"on", true, true};
  const Mode kPriv = {"priv", true, false};

  bool all_ok = true;
  bool bar_met = true;
  for (const BenchCase& c : cases) {
    Cell off;
    Cell on;
    for (const Mode* mode : {&kOff, &kOn}) {
      // Counter values are deterministic at jobs == 1; wall clock is not,
      // so take the best of three runs to damp scheduling noise.
      Cell cell = RunCell(c, 1, *mode, cap);
      for (int rerun = 0; rerun < 2 && !smoke; ++rerun) {
        Cell again = RunCell(c, 1, *mode, cap);
        if (again.seconds < cell.seconds) {
          cell = again;
        }
      }
      all_ok &= cell.replayed;
      std::printf("%-15s | %-4d | %-4s | %-7llu | %-9llu | %-10llu | %-7llu | "
                  "%-8.3f | %s",
                  c.name.c_str(), 1, mode->name,
                  static_cast<unsigned long long>(cell.solver.sat_calls),
                  static_cast<unsigned long long>(cell.solver.sat_conflicts),
                  static_cast<unsigned long long>(cell.solver.sat_propagations),
                  static_cast<unsigned long long>(cell.solver.shared_hits),
                  cell.seconds, cell.replayed ? "ok" : "FAILED");
      if (mode->pipeline) {
        on = cell;
        double conf_red =
            off.solver.sat_conflicts > 0
                ? 1.0 - static_cast<double>(on.solver.sat_conflicts) /
                            static_cast<double>(off.solver.sat_conflicts)
                : 0.0;
        double wall_red = off.seconds > 0.0 ? 1.0 - on.seconds / off.seconds : 0.0;
        std::printf("  (conflicts %+.0f%%, wall %+.0f%%)", -100.0 * conf_red,
                    -100.0 * wall_red);
        // The acceptance bar: >= 25% fewer SAT conflicts or >= 25% lower
        // wall clock on the deterministic jobs == 1 runs. Conflict counts
        // are deterministic; wall clock is the fallback metric.
        if (c.enforce_bar && conf_red < 0.25 && wall_red < 0.25) {
          bar_met = false;
        }
      } else {
        off = cell;
      }
      std::printf("\n");
    }
  }

  // Parallel rows: the shared portfolio cache must show cross-worker hits
  // (an answer one worker computed short-circuiting another worker's SAT
  // call). Work stealing makes the exact count load-dependent, so the gate
  // is existence, with retries to absorb scheduling luck.
  bool shared_hits_seen = false;
  const BenchCase& pc = cases[1];  // race-arith: the longest query stream.
  for (int attempt = 0; attempt < 3; ++attempt) {
    for (const Mode* mode : {&kOn, &kPriv}) {
      Cell cell = RunCell(pc, max_jobs, *mode, cap);
      all_ok &= cell.replayed;
      std::printf("%-15s | %-4d | %-4s | %-7llu | %-9llu | %-10llu | %-7llu | "
                  "%-8.3f | %s\n",
                  pc.name.c_str(), max_jobs, mode->name,
                  static_cast<unsigned long long>(cell.solver.sat_calls),
                  static_cast<unsigned long long>(cell.solver.sat_conflicts),
                  static_cast<unsigned long long>(cell.solver.sat_propagations),
                  static_cast<unsigned long long>(cell.solver.shared_hits),
                  cell.seconds, cell.replayed ? "ok" : "FAILED");
      if (mode->cache_shared && cell.solver.shared_hits > 0) {
        shared_hits_seen = true;
      }
    }
    if (shared_hits_seen) {
      break;
    }
  }

  // Perf-trajectory records for the CI regression gate: the deterministic
  // jobs == 1 full-pipeline configuration, best of three runs per workload
  // (see bench/bench_common.h).
  std::vector<bench::BenchRecord> trajectory;
  const std::string git_rev = bench::GitRev();
  for (const BenchCase& c : cases) {
    core::SynthesisOptions options;
    options.time_cap_seconds = cap;
    trajectory.push_back(
        bench::MeasureTrajectory(c.name, c.module.get(), c.dump, options, git_rev));
  }
  if (auto path = bench::WriteBenchJson("solver", trajectory);
      path.has_value()) {
    std::printf("\nwrote %s (%zu workloads)\n", path->c_str(),
                trajectory.size());
  } else {
    std::fprintf(stderr, "bench_solver: cannot write BENCH_solver.json\n");
    return 1;
  }
  std::printf("\n(SATcall/conflicts/propagate sum the solver-pipeline "
              "counters across workers; shared =\n cross-worker shared-cache "
              "hits. Every successful run's execution file is verified by\n "
              "strict playback. jobs=1 rows are deterministic; the 25%% "
              "conflicts-or-wall bar is\n enforced there.)\n");
  if (!all_ok) {
    std::fprintf(stderr, "bench_solver: a synthesized execution failed to replay\n");
    return 1;
  }
  if (smoke) {
    return 0;
  }
  if (!bar_met) {
    std::fprintf(stderr,
                 "bench_solver: pipeline reduced neither SAT conflicts nor wall "
                 "clock by >= 25%% on a jobs=1 workload\n");
    return 1;
  }
  if (!shared_hits_seen) {
    std::fprintf(stderr,
                 "bench_solver: shared solver cache reported zero cross-worker "
                 "hits with --jobs %d\n", max_jobs);
    return 1;
  }
  return 0;
}
