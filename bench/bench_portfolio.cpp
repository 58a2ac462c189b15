// Strong-scaling benchmark for the portfolio synthesis engine: aggregate
// exploration throughput (states/sec) and time-to-first-manifestation as
// the worker count sweeps jobs in {1, 2, 4, 8} (capped by ESD_BENCH_JOBS)
// over the deadlock and race workloads (all workers drain one logical
// work-stealing frontier; children are routed to fingerprint-hashed home
// workers; idle workers steal).
//
// Each (workload, jobs) cell repeats full synthesis and keeps the *best*
// per-run throughput (states_created / seconds) and the *fastest*
// time-to-first-manifestation: interference from background load only ever
// lowers throughput, so the max over repeats is the closest sample of the
// configuration's true speed — the multi-worker analogue of
// bench::MeasureTrajectory's fastest-run estimator, which is unusable here
// because parallel runs are not state-for-state deterministic. Every
// run's execution file is verified by strict deterministic playback.
//
// Emits BENCH_portfolio.json with one record per cell ("listing1@j4"):
// states/sec, ttfm_seconds, the hot-path counters (including the new
// steals / steal_failures / states_handed_off / frontier_max_depth), and —
// on the jobs=4 records of the gated workloads, when the host actually has
// >= 4 cores — scale_ratio, the jobs=4 / jobs=1 throughput ratio that
// bench/check_perf_trajectory.py gates at >= 1.7x in CI.
//
// Environment knobs:
//   ESD_BENCH_JOBS    max worker count to sweep to (default 4, max 8).
//   ESD_BENCH_CAP_S   per-run time cap in seconds (default 10).
//   ESD_BENCH_SMOKE   1 = single repeat per cell, no in-binary scaling bar
//                     (CI emit step; the python gate still sees the JSON).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_common.h"
#include "bench/scaling_workloads.h"
#include "src/core/synthesizer.h"
#include "src/replay/replayer.h"

using namespace esd;

namespace {

struct BenchCase {
  std::string name;
  std::shared_ptr<ir::Module> module;
  report::CoreDump dump;
  // Gated workloads carry scale_ratio on their jobs=4 record and back the
  // in-binary >= 1.7x bar (ISSUE: one deadlock + one race workload).
  bool enforce_bar = false;
};

// One cell's estimators over the repeat loop.
struct CellSample {
  double states_per_sec = 0.0;  // max over repeats
  double ttfm_seconds = 0.0;    // min over repeats
  EventCounters counters;       // from the best-throughput repeat
  std::string winner;
  bool all_replayed = true;
};

int MaxJobs() {
  const char* env = std::getenv("ESD_BENCH_JOBS");
  int jobs = env != nullptr ? std::atoi(env) : 4;
  jobs = std::clamp(jobs, 1, 8);
  return jobs;
}

bool SmokeMode() {
  const char* env = std::getenv("ESD_BENCH_SMOKE");
  return env != nullptr && std::atoi(env) != 0;
}

// The scaling gate is only meaningful when the sweep can actually run its
// workers in parallel: a 2-core laptop or a 1-core container would read as
// an engine regression. Records from such hosts carry scale_ratio = 0 and
// the python gate skips the ratio check for them.
bool HostCanScaleTo(int jobs) {
  unsigned cores = std::thread::hardware_concurrency();
  return cores != 0 && static_cast<int>(cores) >= jobs;
}

CellSample MeasureCell(const BenchCase& c, int jobs, double cap, bool smoke,
                       std::vector<double>* calib_seconds) {
  CellSample cell;
  // Smoke mode still repeats three times: CI's emit step runs under
  // ESD_BENCH_SMOKE=1 and the jobs=4 scale_ratio it emits feeds the python
  // gate, so a single noisy run must not decide the ratio.
  const int min_runs = smoke ? 3 : 10;
  const double min_seconds = smoke ? 0.0 : 0.5;
  double total = 0.0;
  for (int i = 0; (i < min_runs || total < min_seconds) && i < 1000; ++i) {
    calib_seconds->push_back(bench::CalibBatchSeconds());
    core::SynthesisOptions options;
    options.time_cap_seconds = cap;
    options.jobs = static_cast<size_t>(jobs);
    core::Synthesizer synthesizer(c.module.get(), options);
    core::SynthesisResult result = synthesizer.Synthesize(c.dump);
    if (result.seconds <= 0.0) {
      break;
    }
    total += result.seconds;

    bool replayed = false;
    if (result.success) {
      replay::ReplayResult r =
          replay::Replay(*c.module, result.file, replay::ReplayMode::kStrict);
      replayed = r.completed && r.bug_reproduced;
    }
    cell.all_replayed &= replayed;

    double sps = static_cast<double>(result.states_created) / result.seconds;
    if (sps > cell.states_per_sec) {
      cell.states_per_sec = sps;
      cell.counters = result.counters;
      if (result.winning_worker >= 0) {
        cell.winner = result.workers[result.winning_worker].strategy;
      } else {
        cell.winner = "proximity (classic engine)";
      }
    }
    if (cell.ttfm_seconds == 0.0 || result.seconds < cell.ttfm_seconds) {
      cell.ttfm_seconds = result.seconds;
    }
  }
  return cell;
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
    cases.push_back(BenchCase{w.name, w.module, *dump,
                              /*enforce_bar=*/false});
  }
  {
    // The §4.2 lost-update race: the report is the assert in main, the
    // race happened earlier.
    auto module = workloads::RacyCounterModule();
    cases.push_back(BenchCase{"racy-counter", module,
                              workloads::AssertSiteDump(*module),
                              /*enforce_bar=*/false});
  }
  // The gated strong-scaling pair (bench/scaling_workloads.h): search
  // spaces large enough (thousands of states, ~0.2-0.3s at one worker)
  // that aggregate throughput reflects parallel exploration, not thread
  // startup. The Table 1 miniatures above manifest within microseconds and
  // are reported for their time-to-first-manifestation trajectory only.
  {
    auto module = bench::DeadlockScalingModule();
    auto dump =
        workloads::CaptureDump(*module, bench::DeadlockScalingTrigger());
    if (!dump.has_value()) {
      std::fprintf(stderr,
                   "deadlock-scaling: trigger did not manifest the bug\n");
      return 1;
    }
    cases.push_back(
        BenchCase{"deadlock-scaling", module, *dump, /*enforce_bar=*/true});
  }
  {
    auto module = bench::RaceScalingModule();
    cases.push_back(BenchCase{"race-scaling", module,
                              workloads::AssertSiteDump(*module),
                              /*enforce_bar=*/true});
  }

  std::printf("Portfolio strong scaling: cooperative work-stealing frontier, "
              "jobs 1..%d (cap %.0fs per run%s)\n\n",
              max_jobs, cap, smoke ? ", smoke" : "");
  std::printf("%-13s | %-5s | %-11s | %-9s | %-7s | %-7s | %-7s | %s\n",
              "Workload", "jobs", "states/sec", "ttfm (s)", "scaling",
              "steals", "handoff", "winner strategy");
  std::printf("--------------+-------+-------------+-----------+---------+"
              "---------+---------+----------------\n");

  const int gate_jobs = 4;
  bool all_ok = true;
  bool bar_met = true;
  std::vector<bench::BenchRecord> trajectory;
  std::vector<double> calib_seconds;
  const std::string git_rev = bench::GitRev();
  for (const BenchCase& c : cases) {
    double base_sps = 0.0;
    for (int jobs = 1; jobs <= max_jobs; jobs *= 2) {
      CellSample cell = MeasureCell(c, jobs, cap, smoke, &calib_seconds);
      all_ok &= cell.all_replayed;
      if (jobs == 1) {
        base_sps = cell.states_per_sec;
      }
      double ratio =
          base_sps > 0.0 && jobs > 1 ? cell.states_per_sec / base_sps : 0.0;

      char scaling[16] = "-";
      if (jobs > 1) {
        std::snprintf(scaling, sizeof(scaling), "%.2fx", ratio);
      }
      std::printf("%-13s | %-5d | %-11.0f | %-9.5f | %-7s | %-7llu | %-7llu "
                  "| %s%s\n",
                  c.name.c_str(), jobs, cell.states_per_sec, cell.ttfm_seconds,
                  scaling,
                  static_cast<unsigned long long>(cell.counters.steals),
                  static_cast<unsigned long long>(
                      cell.counters.states_handed_off),
                  cell.winner.c_str(), cell.all_replayed ? "" : "  [FAILED]");

      bench::BenchRecord rec;
      rec.workload = c.name + "@j" + std::to_string(jobs);
      rec.states_per_sec = cell.states_per_sec;
      rec.ttfm_seconds = cell.ttfm_seconds;
      rec.counters = cell.counters;
      rec.git_rev = git_rev;
      if (jobs == gate_jobs && c.enforce_bar && HostCanScaleTo(gate_jobs)) {
        rec.scale_ratio = ratio;
        if (!smoke && ratio < 1.7) {
          bar_met = false;
        }
      }
      trajectory.push_back(std::move(rec));
    }
  }
  if (!calib_seconds.empty()) {
    double calib_best =
        *std::min_element(calib_seconds.begin(), calib_seconds.end());
    if (calib_best > 0.0) {
      for (bench::BenchRecord& rec : trajectory) {
        rec.calib_ops_per_sec = static_cast<double>(1 << 16) / calib_best;
      }
    }
  }
  if (auto path = bench::WriteBenchJson("portfolio", trajectory);
      path.has_value()) {
    std::printf("\nperf-trajectory records: %s\n", path->c_str());
  }

  std::printf("\n(states/sec = best aggregate throughput over repeats; "
              "ttfm = fastest wall clock to first\n manifestation; every "
              "run's execution file is verified by deterministic playback)\n");
  if (!HostCanScaleTo(gate_jobs)) {
    std::printf("note: host has %u cores (< %d); scaling bar not enforced "
                "and scale_ratio not recorded\n",
                std::thread::hardware_concurrency(), gate_jobs);
  } else if (!smoke && max_jobs >= gate_jobs && !bar_met) {
    std::printf("FAILED: jobs=%d aggregate states/sec below the 1.7x "
                "scaling bar on a gated workload\n", gate_jobs);
  }
  bool gate_ok = smoke || max_jobs < gate_jobs || !HostCanScaleTo(gate_jobs) ||
                 bar_met;
  return all_ok && gate_ok ? 0 : 1;
}
