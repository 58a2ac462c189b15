// ESD fuzz: the differential synthesis oracle.
//
// Every generated scenario comes with a planted bug and a known trigger,
// which makes full-engine validation free: the oracle (1) manifests the
// bug concretely to capture the report a user's failing run would produce,
// (2) runs complete synthesis (OracleOptions::jobs workers, pruning and
// solver pipeline on) against that report, (3) strict- and
// happens-before-replays the synthesized execution file and re-checks
// determinism, and (4) re-runs synthesis with the pruning layer, with the
// solver pipeline, and with the pre-synthesis IR optimizer disabled: the
// ablations must agree with the full engine on feasibility. A verdict
// failing any stage is a real engine bug (or a generator bug), never fuzz
// noise — which is what lets the fuzz sweep gate CI.
#ifndef ESD_SRC_FUZZ_ORACLE_H_
#define ESD_SRC_FUZZ_ORACLE_H_

#include <optional>
#include <string>

#include "src/core/synthesizer.h"
#include "src/fuzz/generator.h"
#include "src/report/coredump.h"

namespace esd::fuzz {

struct OracleOptions {
  double time_cap_seconds = 30.0;
  uint64_t max_instructions = 20'000'000;
  size_t max_states = 100'000;
  // Search workers for every synthesis run. The CI coop-ablation job
  // sweeps the corpus with `--jobs 2` and `--jobs 4` and diffs per-seed
  // verdicts against the jobs=1 sweep.
  size_t jobs = 1;
  // Pre-synthesis IR optimization for the primary run (and the pruning /
  // solver ablations, which inherit it). `esdfuzz --no-ir-opt` clears this
  // so the whole sweep exercises the unoptimized engine — the CI ablation
  // job runs the corpus both ways and diffs the verdicts.
  bool ir_opt = true;
  // TSO store-buffer modeling (SynthesisOptions::store_buffer) for the
  // primary run and the ablations. `esdfuzz --no-store-buffer` clears it:
  // under sequentially consistent atomics the spsc-fence kind's planted bug
  // becomes unreachable, so sweeps of that kind expect synthesis to fail.
  bool store_buffer = true;
  // Stage 4: re-run synthesis with pruning off, with the solver pipeline
  // off, and with the IR optimizer off, and require feasibility agreement.
  // The dominant cost of a verdict; sweeps can disable it for a subset of
  // seeds.
  bool check_ablations = true;
  // Separate budgets for the ablation runs (0 = inherit the primary
  // budgets). Pruning-off exploration can be far slower than the full
  // engine, so sweeps may want a larger ablation cap — or a small one to
  // bound the worst case, accepting that a too-tight cap reads as
  // divergence.
  double ablation_time_cap_seconds = 0;
  size_t ablation_max_states = 0;
  // Fault injection: pretend the planted bug has this kind instead of the
  // generator's. Makes every verdict fail at the kind check regardless of
  // scenario size — the knob the shrinker tests (and `esdfuzz
  // --inject-kind-mismatch`) use to exercise the failure path without a
  // real engine bug.
  std::optional<vm::BugInfo::Kind> expect_kind_override;
};

struct OracleVerdict {
  bool ok = true;
  // First stage that failed: "report", "synthesis", "kind", "replay",
  // "determinism", "ablation-pruning", "ablation-solver", "ablation-ir-opt".
  // Empty when ok.
  std::string stage;
  std::string failure;  // One-line diagnostic. Empty when ok.
  // The full-engine run (primary configuration), for stats/fingerprints.
  core::SynthesisResult result;
};

// Builds the bug report the scenario's planted bug would produce in the
// field: a concrete trigger run's coredump for deadlocks and crashes, the
// assert-site coredump for races (whose buggy interleaving is not
// expressible as a sync-event script; §3.1 — the report names the
// detection site, not the race). nullopt if the trigger fails to manifest
// the planted bug.
std::optional<report::CoreDump> MakeReport(const GeneratedProgram& program);

OracleVerdict CheckScenario(const GeneratedProgram& program,
                            const OracleOptions& options);

}  // namespace esd::fuzz

#endif  // ESD_SRC_FUZZ_ORACLE_H_
