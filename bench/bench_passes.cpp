// Benchmarks the pre-synthesis IR pass pipeline (branch elision, then
// dead-arithmetic neutralization) and the solver's interval range-discharge
// stage on the solver-heavy arith workloads shared with bench_solver
// (bench/arith_workloads.h).
//
// Two measurements:
//
//   1. Dynamic: full synthesis at jobs == 1 with the default configuration.
//      The table reports the pass pipeline's rewrite counts, the solver's
//      range-stage accounting (components interval-analyzed, discharged
//      without a SAT call, refuted outright) and wall clock; each
//      successful run's execution file is verified by strict playback
//      against the ORIGINAL module, so the optimizer only counts if trace
//      preservation actually held.
//   2. Static: a directed showcase module with a pinned branch whose
//      condition dies once the branch is elided runs through the
//      PassManager alone, checking that both passes still fire and that
//      the optimized module re-verifies.
//
// The process exits nonzero if any synthesized execution fails to replay,
// if the range stage discharges fewer than 30% of the guard components it
// analyzes (summed across the workloads — the ISSUE acceptance bar), or if
// a showcase pass performs zero rewrites.
//
// Environment knobs:
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
#include "src/ir/parser.h"
#include "src/ir/passes/passes.h"
#include "src/ir/verifier.h"
#include "src/replay/replayer.h"

using namespace esd;

namespace {

struct BenchCase {
  std::string name;
  std::shared_ptr<ir::Module> module;
  report::CoreDump dump;
};

bool SmokeMode() {
  const char* env = std::getenv("ESD_BENCH_SMOKE");
  return env != nullptr && std::atoi(env) != 0;
}

// Known-rewritable module for the static check: a branch pinned by a
// constant chain, whose condition has no other user once the branch is
// elided. Both passes must fire here, every release.
constexpr char kShowcase[] = R"(
global $g = zero 4
func @compute(%x: i32) : i32 {
entry:
  %five = add i32 2, i32 3
  %c = icmp eq %five, i32 5
  condbr %c, live, dead
live:
  %r = add %x, %five
  ret %r
dead:
  %d = mul %x, i32 99
  ret %d
}
func @main() : i32 {
entry:
  %v = call @compute(i32 1)
  store %v, $g
  ret i32 0
}
)";

}  // namespace

int main() {
  double cap = bench::CapSeconds();
  bool smoke = SmokeMode();

  std::vector<BenchCase> cases;
  {
    auto module = bench::DeadlockArithModule();
    auto dump = workloads::CaptureDump(*module, bench::DeadlockArithTrigger());
    if (!dump.has_value()) {
      std::fprintf(stderr, "deadlock-arith: trigger did not manifest the bug\n");
      return 1;
    }
    cases.push_back(BenchCase{"deadlock-arith", module, *dump});
  }
  {
    auto module = bench::RaceArithModule();
    cases.push_back(
        BenchCase{"race-arith", module, workloads::AssertSiteDump(*module)});
  }

  std::printf("Pre-synthesis IR pipeline + interval range discharge "
              "(cap %.0fs%s)\n\n",
              cap, smoke ? ", smoke: gates skipped" : "");
  std::printf("%-15s | %-6s | %-11s | %-7s | %-7s | %-9s | %-6s | %-8s | %s\n",
              "Workload", "elided", "neutralized", "checked", "dischg",
              "unsat", "ratio", "wall (s)", "replay");
  std::printf("----------------+--------+-------------+---------+---------+"
              "-----------+--------+----------+-------\n");

  bool all_ok = true;
  uint64_t total_checked = 0;
  uint64_t total_discharged = 0;
  for (const BenchCase& c : cases) {
    core::SynthesisOptions options;
    options.time_cap_seconds = cap;
    core::Synthesizer synthesizer(c.module.get(), options);
    core::SynthesisResult result = synthesizer.Synthesize(c.dump);
    bool replayed = false;
    if (result.success) {
      replay::ReplayResult r =
          replay::Replay(*c.module, result.file, replay::ReplayMode::kStrict);
      replayed = r.completed && r.bug_reproduced;
    }
    all_ok &= replayed;
    total_checked += result.solver.range_checked;
    total_discharged += result.solver.range_discharged;
    double ratio =
        result.solver.range_checked > 0
            ? static_cast<double>(result.solver.range_discharged) /
                  static_cast<double>(result.solver.range_checked)
            : 0.0;
    std::printf("%-15s | %-6llu | %-11llu | %-7llu | %-7llu | %-9llu | "
                "%-6.2f | %-8.3f | %s\n",
                c.name.c_str(),
                static_cast<unsigned long long>(result.pass_stats.elided_branches),
                static_cast<unsigned long long>(
                    result.pass_stats.neutralized_insts),
                static_cast<unsigned long long>(result.solver.range_checked),
                static_cast<unsigned long long>(result.solver.range_discharged),
                static_cast<unsigned long long>(result.solver.range_unsat),
                ratio, result.seconds, replayed ? "ok" : "FAILED");
  }
  double total_ratio =
      total_checked > 0
          ? static_cast<double>(total_discharged) /
                static_cast<double>(total_checked)
          : 0.0;
  std::printf("\nrange stage: %llu / %llu guard components discharged "
              "statically (%.0f%%, bar 30%%)\n",
              static_cast<unsigned long long>(total_discharged),
              static_cast<unsigned long long>(total_checked),
              100.0 * total_ratio);

  // Static check: both passes fire on the showcase module.
  ir::Module showcase;
  ir::ParseResult parsed = ir::ParseModule(
      std::string(workloads::ExternsPreamble()) + kShowcase, &showcase);
  if (!parsed.ok) {
    std::fprintf(stderr, "bench_passes: showcase parse error: %s\n",
                 parsed.error.c_str());
    return 1;
  }
  ir::passes::PassManager pm;
  ir::passes::PassStats stats;
  bool showcase_ok = pm.Run(&showcase, ir::passes::ProtectedSites{}, &stats) &&
                     ir::Verify(showcase).empty();
  std::printf("showcase: elided=%llu neutralized=%llu (%s)\n",
              static_cast<unsigned long long>(stats.elided_branches),
              static_cast<unsigned long long>(stats.neutralized_insts),
              showcase_ok ? "verified" : "FAILED");

  // Perf-trajectory records for the CI regression gate: the deterministic
  // jobs == 1 default configuration (passes + range stage on), best-of-N
  // runs per workload (see bench/bench_common.h). Distinct workload names
  // from bench_solver's records: this trajectory tracks the optimizing
  // configuration as the passes evolve.
  std::vector<bench::BenchRecord> trajectory;
  const std::string git_rev = bench::GitRev();
  for (const BenchCase& c : cases) {
    core::SynthesisOptions options;
    options.time_cap_seconds = cap;
    trajectory.push_back(bench::MeasureTrajectory(
        "passes-" + c.name, c.module.get(), c.dump, options, git_rev));
  }
  if (auto path = bench::WriteBenchJson("passes", trajectory);
      path.has_value()) {
    std::printf("\nwrote %s (%zu workloads)\n", path->c_str(),
                trajectory.size());
  } else {
    std::fprintf(stderr, "bench_passes: cannot write BENCH_passes.json\n");
    return 1;
  }

  if (!all_ok) {
    std::fprintf(stderr,
                 "bench_passes: a synthesized execution failed to replay\n");
    return 1;
  }
  if (smoke) {
    return 0;
  }
  if (total_ratio < 0.30) {
    std::fprintf(stderr,
                 "bench_passes: range stage discharged %.0f%% of guard "
                 "components, below the 30%% bar\n",
                 100.0 * total_ratio);
    return 1;
  }
  if (!showcase_ok || stats.elided_branches == 0 ||
      stats.neutralized_insts == 0) {
    std::fprintf(stderr,
                 "bench_passes: a showcase pass performed zero rewrites "
                 "(pipeline went dead)\n");
    return 1;
  }
  return 0;
}
