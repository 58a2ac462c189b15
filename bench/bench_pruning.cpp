// Benchmarks the redundant-interleaving pruning layer: state deduplication
// (visited-fingerprint table) plus sleep sets, on the deadlock and race
// workloads, with `--jobs 1` and `--jobs N`.
//
// For every (workload, jobs, mode) cell the bench runs full synthesis and
// reports states explored, states deduped, sleep-set skips, and wall clock;
// each successful run's execution file is verified by deterministic strict
// playback, so a pruned search that found a *different* path to the bug
// still counts only if the bug replays. Modes:
//
//   off        no pruning (the PR-1 engine)
//   on         dedup (one table shared by the workers when jobs > 1) +
//              sleep sets
//
// The process exits nonzero if any synthesized execution fails to replay,
// or if pruning reduces the states explored by less than 30% on the
// deterministic jobs == 1 runs (the acceptance bar for this layer).
//
// Environment knobs:
//   ESD_BENCH_JOBS    max worker count for the parallel rows (default 4).
//   ESD_BENCH_CAP_S   per-run time cap in seconds (default 10).
//   ESD_BENCH_SMOKE   nonzero: run everything (including the BENCH_*.json
//                     emission) but skip the pruning bar (CI smoke).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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
  // Enforce the >= 30% pruning bar on this case's jobs == 1 rows. Set for
  // the deadlock and race workloads whose interleaving space is large
  // enough for redundancy to dominate; tiny cases (goal found within a few
  // dozen states) are reported but not gated — their counts are trajectory
  // noise, not pruning signal.
  bool enforce_bar = false;
};

// The §4.2 lost-update race scaled to where interleaving redundancy
// dominates. Three threads bump the shared counter, and each first runs a
// prefix of lock/unlock pairs on its own private mutex: pure commuting
// noise every interleaving must traverse. The unpruned engine forks one
// schedule variant per thread at each of those sync ops, exploding the
// space with orderings that differ only in how independent operations
// commute — exactly what sleep sets and state dedup collapse. The reported
// bug needs a *rare* interleaving on top (the assert fails only when v == 1,
// i.e. all three threads read 0 before any store), so no search shortcut
// skips the noise region.
std::shared_ptr<ir::Module> NoisyRacyCounterModule() {
  return workloads::ParseWorkload(R"(
global $counter = zero 4
global $m1 = zero 8
global $m2 = zero 8
global $m3 = zero 8
global $iters_name = str "iters"

func @bump1(%arg: ptr) : void {
entry:
  call @mutex_lock($m1)
  call @mutex_unlock($m1)
  call @mutex_lock($m1)
  call @mutex_unlock($m1)
  %v = load i32, $counter
  %n = add %v, i32 1
  store %n, $counter
  ret
}

func @bump2(%arg: ptr) : void {
entry:
  call @mutex_lock($m2)
  call @mutex_unlock($m2)
  call @mutex_lock($m2)
  call @mutex_unlock($m2)
  %v = load i32, $counter
  %n = add %v, i32 1
  store %n, $counter
  ret
}

func @bump3(%arg: ptr) : void {
entry:
  call @mutex_lock($m3)
  call @mutex_unlock($m3)
  call @mutex_lock($m3)
  call @mutex_unlock($m3)
  %v = load i32, $counter
  %n = add %v, i32 1
  store %n, $counter
  ret
}

func @main() : i32 {
entry:
  %iters = call @esd_input_i32($iters_name)
  %go = icmp eq %iters, i32 3
  condbr %go, run, skip
run:
  %t1 = call @thread_create(@bump1, null)
  %t2 = call @thread_create(@bump2, null)
  %t3 = call @thread_create(@bump3, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  call @thread_join(%t3)
  %v = load i32, $counter
  %ok = icmp ne %v, i32 1
  call @esd_assert(%ok)
  ret i32 0
skip:
  ret i32 0
}
)");
}

struct Mode {
  const char* name;
  bool dedup;
  bool sleep_sets;
};

int MaxJobs() {
  const char* env = std::getenv("ESD_BENCH_JOBS");
  int jobs = env != nullptr ? std::atoi(env) : 4;
  return jobs < 1 ? 1 : jobs;
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
  for (const char* name : {"listing1", "sqlite"}) {
    workloads::Workload w = workloads::MakeWorkload(name);
    auto dump = workloads::CaptureDump(*w.module, w.trigger);
    if (!dump.has_value()) {
      std::fprintf(stderr, "%s: trigger did not manifest the bug\n", name);
      return 1;
    }
    // listing1 is the deadlock workload the bar is enforced on; sqlite's
    // goal is found within a dozen states, so it is report-only.
    cases.push_back(BenchCase{w.name, w.module, *dump,
                              std::string(name) == "listing1"});
  }
  {
    // The §4.2 lost-update race: the report is the assert in main. Small
    // (goal within a few dozen states): report-only.
    auto module = workloads::RacyCounterModule();
    cases.push_back(
        BenchCase{"racy-counter", module, workloads::AssertSiteDump(*module), false});
  }
  {
    // The race workload the bar is enforced on: redundancy-heavy variant.
    auto module = NoisyRacyCounterModule();
    cases.push_back(BenchCase{"racy-noisy", module,
                              workloads::AssertSiteDump(*module), true});
  }

  const Mode kModes[] = {
      {"off", false, false},
      {"on", true, true},
  };

  std::printf("Redundant-interleaving pruning: dedup + sleep sets vs. the "
              "unpruned engine (cap %.0fs)\n\n", cap);
  std::printf("%-13s | %-4s | %-7s | %-8s | %-8s | %-7s | %-8s | %s\n",
              "Workload", "jobs", "mode", "states", "deduped", "skips",
              "wall (s)", "replay");
  std::printf("--------------+------+---------+----------+----------+---------+"
              "----------+-------\n");

  bool all_ok = true;
  bool bar_met = true;
  for (const BenchCase& c : cases) {
    for (int jobs : {1, max_jobs}) {
      if (jobs != 1 && jobs == 1) {
        continue;
      }
      uint64_t baseline_states = 0;
      for (const Mode& mode : kModes) {
        core::SynthesisOptions options;
        options.time_cap_seconds = cap;
        options.jobs = static_cast<size_t>(jobs);
        options.dedup = mode.dedup;
        options.sleep_sets = mode.sleep_sets;
        core::Synthesizer synthesizer(c.module.get(), options);
        core::SynthesisResult result = synthesizer.Synthesize(c.dump);

        bool replayed = false;
        if (result.success) {
          replay::ReplayResult r =
              replay::Replay(*c.module, result.file, replay::ReplayMode::kStrict);
          replayed = r.completed && r.bug_reproduced;
        }
        all_ok &= replayed;

        if (std::string(mode.name) == "off") {
          baseline_states = result.states_created;
        }
        std::printf("%-13s | %-4d | %-7s | %-8llu | %-8llu | %-7llu | %-8.3f | %s",
                    c.name.c_str(), jobs, mode.name,
                    static_cast<unsigned long long>(result.states_created),
                    static_cast<unsigned long long>(result.states_deduped),
                    static_cast<unsigned long long>(result.sleep_set_skips),
                    result.seconds, replayed ? "ok" : "FAILED");
        if (mode.dedup && baseline_states > 0) {
          double reduction =
              100.0 * (1.0 - static_cast<double>(result.states_created) /
                                 static_cast<double>(baseline_states));
          std::printf("  (%+.0f%% states)", -reduction);
          // The acceptance bar: >= 30% fewer states on the deterministic
          // single-worker runs of the gated workloads. Parallel rows steal
          // work under a time cap, so their counts are load-dependent and
          // only reported.
          if (jobs == 1 && c.enforce_bar && reduction < 30.0) {
            bar_met = false;
          }
        }
        std::printf("\n");
      }
      if (jobs == 1 && max_jobs == 1) {
        break;
      }
    }
  }
  // Perf-trajectory records for the CI regression gate: the deterministic
  // jobs == 1 default configuration (dedup + sleep sets on), best of three
  // runs per workload (see bench/bench_common.h).
  std::vector<bench::BenchRecord> trajectory;
  const std::string git_rev = bench::GitRev();
  for (const BenchCase& c : cases) {
    core::SynthesisOptions options;
    options.time_cap_seconds = cap;
    trajectory.push_back(
        bench::MeasureTrajectory(c.name, c.module.get(), c.dump, options, git_rev));
  }
  if (auto path = bench::WriteBenchJson("pruning", trajectory);
      path.has_value()) {
    std::printf("\nwrote %s (%zu workloads)\n", path->c_str(),
                trajectory.size());
  } else {
    std::fprintf(stderr, "bench_pruning: cannot write BENCH_pruning.json\n");
    return 1;
  }
  std::printf("\n(states = execution states registered by the engine; every "
              "successful run's execution\n file is verified by strict "
              "playback. jobs=1 rows are deterministic; the 30%% pruning\n "
              "bar is enforced there.)\n");
  if (!all_ok) {
    std::fprintf(stderr, "bench_pruning: a synthesized execution failed to replay\n");
    return 1;
  }
  if (!bar_met && !smoke) {
    std::fprintf(stderr,
                 "bench_pruning: pruning reduced states by less than 30%% on a "
                 "jobs=1 workload\n");
    return 1;
  }
  return 0;
}
