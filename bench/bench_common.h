// Shared helpers for the paper-reproduction benchmark binaries.
//
// Environment knobs:
//   ESD_BENCH_CAP_S   per-tool time cap in seconds for the baseline runs
//                     (default 10; the paper used 3600). ESD itself is given
//                     the same cap.
//   ESD_BENCH_STRESS  number of stress-test runs per workload (default 20).
#ifndef ESD_BENCH_BENCH_COMMON_H_
#define ESD_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/baseline/kc.h"
#include "src/core/synthesizer.h"
#include "src/replay/replayer.h"
#include "src/vm/fingerprint.h"
#include "src/workloads/workloads.h"

namespace esd::bench {

inline double CapSeconds() {
  const char* env = std::getenv("ESD_BENCH_CAP_S");
  return env != nullptr ? std::atof(env) : 10.0;
}

inline int StressRuns() {
  const char* env = std::getenv("ESD_BENCH_STRESS");
  return env != nullptr ? std::atoi(env) : 20;
}

struct ToolOutcome {
  bool found = false;
  double seconds = 0.0;
};

// Runs full ESD synthesis (capture -> synthesize -> verify playback).
inline ToolOutcome RunEsd(const workloads::Workload& w, double cap,
                          core::SynthesisOptions options = {}) {
  ToolOutcome outcome;
  auto dump = workloads::CaptureDump(*w.module, w.trigger);
  if (!dump.has_value()) {
    return outcome;
  }
  options.time_cap_seconds = cap;
  core::Synthesizer synthesizer(w.module.get(), options);
  core::SynthesisResult result = synthesizer.Synthesize(*dump);
  outcome.seconds = result.seconds;
  if (!result.success) {
    return outcome;
  }
  replay::ReplayResult replayed =
      replay::Replay(*w.module, result.file, replay::ReplayMode::kStrict);
  outcome.found = replayed.bug_reproduced;
  return outcome;
}

inline ToolOutcome RunKcOn(const workloads::Workload& w,
                           baseline::KcOptions::Strategy strategy, double cap) {
  ToolOutcome outcome;
  auto dump = workloads::CaptureDump(*w.module, w.trigger);
  if (!dump.has_value()) {
    return outcome;
  }
  core::Goal goal = core::ExtractGoal(*w.module, *dump);
  baseline::KcOptions options;
  options.strategy = strategy;
  options.time_cap_seconds = cap;
  baseline::KcResult r = baseline::RunKc(*w.module, goal, options);
  outcome.found = r.found;
  outcome.seconds = r.seconds;
  return outcome;
}

// Where CalibBatchSeconds stores its loop result. A store to a volatile
// namespace-scope object is observable, so the loop cannot fold away (an
// unread function-local static trips gcc's -Wunused-but-set-variable).
inline volatile uint64_t calib_sink = 0;

// One machine-speed calibration batch: a fixed scalar FingerprintMix64
// loop, returning its wall-clock seconds. Interleaved with the synthesis
// runs in MeasureTrajectory so it samples the same load window; the CI gate
// divides states/sec by the derived ops/sec to cancel machine speed and
// background load out of the regression comparison.
inline double CalibBatchSeconds() {
  constexpr int kOps = 1 << 16;
  auto t0 = std::chrono::steady_clock::now();
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kOps; ++i) {
    h = vm::FingerprintMix64(h + static_cast<uint64_t>(i));
  }
  calib_sink = h;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Perf-trajectory sample for BENCH_*.json: repeats full synthesis until at
// least `min_runs` runs and `min_seconds` of accumulated engine time, then
// reports states/sec from the *fastest* run. A single run on these
// workloads finishes in hundreds of microseconds, where timer granularity,
// cache warmup, and scheduler preemption swing single-run throughput by
// ±20% — and background load can contaminate every statistic except the
// minimum, since interference only ever makes a run slower. Synthesis at
// jobs == 1 is deterministic (every repeat creates the same states and
// counters), so the fastest observed run is the closest sample of the
// machine's true speed; the CI gate divides it by calib_ops_per_sec
// (measured the same way, in the same load window) to compare across
// machines.
inline BenchRecord MeasureTrajectory(const std::string& workload,
                                     const ir::Module* module,
                                     const report::CoreDump& dump,
                                     core::SynthesisOptions options,
                                     const std::string& git_rev,
                                     int min_runs = 20,
                                     double min_seconds = 1.0) {
  BenchRecord rec;
  rec.workload = workload;
  rec.git_rev = git_rev;
  std::vector<double> run_seconds;
  std::vector<double> calib_seconds;
  double total_seconds = 0.0;
  uint64_t run_states = 0;
  for (int i = 0; (i < min_runs || total_seconds < min_seconds) && i < 10000;
       ++i) {
    calib_seconds.push_back(CalibBatchSeconds());
    core::Synthesizer synthesizer(module, options);
    core::SynthesisResult result = synthesizer.Synthesize(dump);
    if (result.seconds <= 0.0) {
      break;
    }
    total_seconds += result.seconds;
    run_seconds.push_back(result.seconds);
    if (run_seconds.size() == 1) {
      rec.counters = result.counters;
      run_states = result.states_created;
    }
  }
  if (!run_seconds.empty()) {
    double best = *std::min_element(run_seconds.begin(), run_seconds.end());
    rec.states_per_sec = static_cast<double>(run_states) / best;
    double calib_best =
        *std::min_element(calib_seconds.begin(), calib_seconds.end());
    if (calib_best > 0.0) {
      rec.calib_ops_per_sec = static_cast<double>(1 << 16) / calib_best;
    }
  }
  return rec;
}

// Formats "x.xx" or ">cap (timeout)".
inline std::string TimeCell(const ToolOutcome& outcome, double cap) {
  char buf[64];
  if (outcome.found) {
    std::snprintf(buf, sizeof(buf), "%8.2fs", outcome.seconds);
  } else {
    std::snprintf(buf, sizeof(buf), ">%6.0fs *", cap);
  }
  return buf;
}

}  // namespace esd::bench

#endif  // ESD_BENCH_BENCH_COMMON_H_
