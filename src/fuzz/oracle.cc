#include "src/fuzz/oracle.h"

#include <sstream>

#include "src/replay/replayer.h"
#include "src/workloads/workloads.h"

namespace esd::fuzz {
namespace {

core::SynthesisOptions BaseOptions(const OracleOptions& options) {
  core::SynthesisOptions synth;
  synth.time_cap_seconds = options.time_cap_seconds;
  synth.max_instructions = options.max_instructions;
  synth.max_states = options.max_states;
  synth.jobs = options.jobs;
  synth.ir_opt = options.ir_opt;
  synth.store_buffer = options.store_buffer;
  return synth;
}

OracleVerdict Fail(OracleVerdict verdict, std::string stage, std::string failure) {
  verdict.ok = false;
  verdict.stage = std::move(stage);
  verdict.failure = std::move(failure);
  return verdict;
}

// Synthesizes under `synth` and verifies the outcome end to end. Returns
// an empty string on success, else the one-line reason.
std::string RunConfiguration(const GeneratedProgram& program,
                             const report::CoreDump& dump,
                             const core::SynthesisOptions& synth,
                             vm::BugInfo::Kind expected,
                             core::SynthesisResult* out) {
  core::Synthesizer synthesizer(program.module.get(), synth);
  core::SynthesisResult result = synthesizer.Synthesize(dump);
  if (out != nullptr) {
    *out = result;
  }
  if (!result.success) {
    return "synthesis failed: " + result.failure_reason;
  }
  if (result.bug.kind != expected) {
    return std::string("bug kind mismatch: synthesized '") +
           std::string(vm::BugKindName(result.bug.kind)) + "', planted '" +
           std::string(vm::BugKindName(expected)) + "'";
  }
  replay::ReplayResult strict =
      replay::Replay(*program.module, result.file, replay::ReplayMode::kStrict);
  if (!strict.bug_reproduced) {
    return "strict replay did not reproduce the bug (got '" +
           std::string(vm::BugKindName(strict.bug.kind)) + "')";
  }
  return "";
}

}  // namespace

std::optional<report::CoreDump> MakeReport(const GeneratedProgram& program) {
  // The race and lock-free kinds are detected at main's esd_assert, so the
  // field report is the assert-site coredump. For spsc-fence no concrete
  // trigger run can even manifest the bug (it needs a store-buffer flush
  // interleaving only symbolic drain forks express); treiber-aba could
  // manifest concretely, but its report shape is the same detection-site
  // dump.
  if (program.spec.kind == BugKind::kRace ||
      program.spec.kind == BugKind::kTreiberAba ||
      program.spec.kind == BugKind::kSpscFence) {
    return workloads::AssertSiteDump(*program.module);
  }
  auto dump = workloads::CaptureDump(*program.module, program.trigger);
  if (dump.has_value() && dump->kind != program.expected_kind) {
    return std::nullopt;
  }
  return dump;
}

OracleVerdict CheckScenario(const GeneratedProgram& program,
                            const OracleOptions& options) {
  OracleVerdict verdict;
  auto dump = MakeReport(program);
  if (!dump.has_value()) {
    return Fail(std::move(verdict), "report",
                "the generator's trigger did not manifest the planted bug");
  }
  vm::BugInfo::Kind expected =
      options.expect_kind_override.value_or(program.expected_kind);

  // Stage 1-3: the full engine, then kind / strict-replay checks.
  core::SynthesisOptions synth = BaseOptions(options);
  core::Synthesizer synthesizer(program.module.get(), synth);
  verdict.result = synthesizer.Synthesize(*dump);
  if (!verdict.result.success) {
    return Fail(std::move(verdict), "synthesis",
                "synthesis failed: " + verdict.result.failure_reason);
  }
  if (verdict.result.bug.kind != expected) {
    return Fail(std::move(verdict), "kind",
                std::string("bug kind mismatch: synthesized '") +
                    std::string(vm::BugKindName(verdict.result.bug.kind)) +
                    "', expected '" + std::string(vm::BugKindName(expected)) +
                    "'");
  }
  replay::ReplayResult strict = replay::Replay(
      *program.module, verdict.result.file, replay::ReplayMode::kStrict);
  if (!strict.bug_reproduced) {
    return Fail(std::move(verdict), "replay",
                "strict replay did not reproduce the bug (got '" +
                    std::string(vm::BugKindName(strict.bug.kind)) + "')");
  }
  // Happens-before playback enforces only sync-op order, so it pins down
  // deadlocks (sync-manifested) and crashes (input-deterministic) — but a
  // data race's buggy window is by definition unordered by sync events, and
  // only strict playback can reproduce it. Skip the HB check for races.
  if (program.spec.kind != BugKind::kRace) {
    replay::ReplayResult hb =
        replay::Replay(*program.module, verdict.result.file,
                       replay::ReplayMode::kHappensBefore);
    if (!hb.bug_reproduced) {
      return Fail(std::move(verdict), "replay",
                  "happens-before replay did not reproduce the bug (got '" +
                      std::string(vm::BugKindName(hb.bug.kind)) + "')");
    }
  }
  replay::ReplayResult again = replay::Replay(
      *program.module, verdict.result.file, replay::ReplayMode::kStrict);
  if (again.instructions != strict.instructions) {
    std::ostringstream os;
    os << "strict replay is not deterministic: " << strict.instructions
       << " vs " << again.instructions << " instructions";
    return Fail(std::move(verdict), "determinism", os.str());
  }

  // Stage 4: ablation agreement. The full engine found the bug, so the
  // engine with pruning off, with the solver pipeline off, and with the IR
  // optimizer off must find it too (they explore supersets of the pruned
  // space over an observationally identical module); a divergence means
  // pruning dropped a feasible interleaving, the pipeline changed
  // satisfiability, or an IR pass changed behavior.
  if (options.check_ablations) {
    core::SynthesisOptions ablation_base = BaseOptions(options);
    if (options.ablation_time_cap_seconds > 0) {
      ablation_base.time_cap_seconds = options.ablation_time_cap_seconds;
    }
    if (options.ablation_max_states > 0) {
      ablation_base.max_states = options.ablation_max_states;
    }
    core::SynthesisOptions no_pruning = ablation_base;
    no_pruning.dedup = false;
    no_pruning.sleep_sets = false;
    if (program.spec.kind == BugKind::kSemLostSignal) {
      // Dedup-off exploration of the sem scenarios is unbounded: the
      // deadlock strategy's broad schedule forking at semaphore operations
      // spawns families of trace-distinct but behavior-identical states
      // ("both threads parked before the same pair of sem ops") that only
      // the fingerprint table collapses — sleep sets cannot, because
      // same-semaphore operations are genuinely dependent and keep waking
      // each other. Weaken only the sleep-set layer for this kind; the
      // dedup layer is still cross-checked by the sleep-off run exploring
      // through it.
      no_pruning.dedup = true;
    }
    std::string reason =
        RunConfiguration(program, *dump, no_pruning, expected, nullptr);
    if (!reason.empty()) {
      return Fail(std::move(verdict), "ablation-pruning",
                  "pruning-off ablation diverged: " + reason);
    }
    core::SynthesisOptions no_solver = ablation_base;
    no_solver.solver_slice = false;
    no_solver.solver_range = false;
    no_solver.solver_incremental = false;
    no_solver.solver_cache_shared = false;
    reason = RunConfiguration(program, *dump, no_solver, expected, nullptr);
    if (!reason.empty()) {
      return Fail(std::move(verdict), "ablation-solver",
                  "solver-pipeline-off ablation diverged: " + reason);
    }
    // The IR passes promise exact trace preservation, so searching the
    // original module must find the same bug and yield a file that still
    // replays. A divergence means a pass changed observable behavior (or
    // the optimizer was load-bearing for feasibility — equally a bug).
    if (options.ir_opt) {
      core::SynthesisOptions no_ir = ablation_base;
      no_ir.ir_opt = false;
      reason = RunConfiguration(program, *dump, no_ir, expected, nullptr);
      if (!reason.empty()) {
        return Fail(std::move(verdict), "ablation-ir-opt",
                    "ir-opt-off ablation diverged: " + reason);
      }
    }
  }
  return verdict;
}

}  // namespace esd::fuzz
