// The esdfuzz scenario family end to end: a fixed-seed corpus of generated
// concurrent programs (deadlock / race / crash planted bugs) must all
// synthesize the planted bug, strict-replay deterministically, and agree
// across pruning/solver ablations — plus generator determinism, IR
// well-formedness, the workload-registry adapters, and the shrinker.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <string>

#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/shrinker.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/replay/execution_file.h"
#include "src/workloads/workloads.h"

namespace esd {
namespace {

fuzz::GeneratedProgram GenerateMixed(uint64_t seed) {
  fuzz::GeneratorParams params;
  params.seed = seed;
  params.kind = static_cast<fuzz::BugKind>(seed % 3);
  return fuzz::Generate(params);
}

// The acceptance corpus: >= 200 fixed seeds cycling through all three bug
// kinds, full oracle (ablations included) on every one, under 60 seconds
// total. Any verdict failure prints the seed and the one-line diagnostic,
// which together with `esdfuzz --kind K --seed-base S --seeds 1 --shrink`
// makes the failure reproducible outside the test.
TEST(FuzzOracleTest, FixedSeedCorpusAllKindsPassWithinBudget) {
  constexpr uint64_t kSeedBase = 1;
  constexpr uint64_t kSeeds = 210;
  auto start = std::chrono::steady_clock::now();
  uint64_t per_kind[3] = {0, 0, 0};
  for (uint64_t seed = kSeedBase; seed < kSeedBase + kSeeds; ++seed) {
    fuzz::GeneratedProgram program = GenerateMixed(seed);
    ++per_kind[seed % 3];
    fuzz::OracleOptions options;
    options.time_cap_seconds = 20.0;
    fuzz::OracleVerdict verdict = fuzz::CheckScenario(program, options);
    ASSERT_TRUE(verdict.ok)
        << "seed " << seed << " ["
        << fuzz::BugKindName(program.spec.kind) << "] failed at stage '"
        << verdict.stage << "': " << verdict.failure;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_GE(per_kind[0], 60u);
  EXPECT_GE(per_kind[1], 60u);
  EXPECT_GE(per_kind[2], 60u);
  // Instrumented builds (coverage, sanitizers) may relax the wall-clock
  // bar via ESD_FUZZ_TIME_CAP; the optimized tier-1 run keeps the 60 s
  // acceptance bound.
  const char* cap_env = std::getenv("ESD_FUZZ_TIME_CAP");
  double cap = cap_env != nullptr ? std::atof(cap_env) : 60.0;
  EXPECT_LT(elapsed, cap) << "corpus sweep must stay CI-cheap";
}

// The sync-surface corpus bump: >= 60 additional fixed seeds cycling the
// three new planted-bug kinds (rwlock-upgrade, sem-lost-signal,
// barrier-mismatch), full oracle including ablation agreement, within a
// 10-second budget on the optimized tier-1 build (instrumented builds
// relax via ESD_FUZZ_TIME_CAP, scaled to stay proportionate to the main
// corpus cap).
TEST(FuzzOracleTest, SyncSurfaceCorpusAllKindsPassWithinBudget) {
  constexpr uint64_t kSeedBase = 1;
  constexpr uint64_t kSeeds = 63;
  auto start = std::chrono::steady_clock::now();
  uint64_t per_kind[3] = {0, 0, 0};
  for (uint64_t seed = kSeedBase; seed < kSeedBase + kSeeds; ++seed) {
    fuzz::GeneratorParams params;
    params.seed = seed;
    params.kind = static_cast<fuzz::BugKind>(3 + seed % 3);
    fuzz::GeneratedProgram program = fuzz::Generate(params);
    ++per_kind[seed % 3];
    fuzz::OracleOptions options;
    options.time_cap_seconds = 20.0;
    fuzz::OracleVerdict verdict = fuzz::CheckScenario(program, options);
    ASSERT_TRUE(verdict.ok)
        << "seed " << seed << " [" << fuzz::BugKindName(program.spec.kind)
        << "] failed at stage '" << verdict.stage << "': " << verdict.failure;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_GE(per_kind[0], 21u);
  EXPECT_GE(per_kind[1], 21u);
  EXPECT_GE(per_kind[2], 21u);
  const char* cap_env = std::getenv("ESD_FUZZ_TIME_CAP");
  double cap = cap_env != nullptr ? std::atof(cap_env) / 6.0 : 10.0;
  EXPECT_LT(elapsed, cap) << "sync-surface corpus must stay CI-cheap";
}

// The shrinker handles the sync-surface statements: a fault-injected
// rwlock-upgrade scenario shrinks below half its statement count while the
// injected failure survives, and the shrunk program still passes the
// honest oracle.
TEST(FuzzShrinkerTest, ShrinksSyncSurfaceScenario) {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kRwUpgrade;
  params.seed = 77;
  params.num_threads = 3;
  params.guard_depth = 3;
  params.noise_per_thread = 6;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  ASSERT_GE(program.spec.StatementCount(), 20u);

  fuzz::OracleOptions options;
  options.expect_kind_override = vm::BugInfo::Kind::kAssertFail;  // Injected.
  fuzz::OracleVerdict before = fuzz::CheckScenario(program, options);
  ASSERT_FALSE(before.ok);
  ASSERT_EQ(before.stage, "kind");

  fuzz::ShrinkStats stats;
  fuzz::GeneratedProgram shrunk =
      fuzz::ShrinkFailingScenario(program, options, &stats);
  EXPECT_LE(stats.stmts_after * 2, stats.stmts_before);

  fuzz::OracleVerdict after = fuzz::CheckScenario(shrunk, options);
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.stage, before.stage);
  fuzz::OracleVerdict honest = fuzz::CheckScenario(shrunk, fuzz::OracleOptions{});
  EXPECT_TRUE(honest.ok) << honest.failure;
}

// The portfolio path: a handful of scenarios under --jobs 4 (shared
// fingerprint table + shared solver cache exercised cross-worker).
TEST(FuzzOracleTest, PortfolioJobsSweep) {
  for (uint64_t seed = 300; seed < 312; ++seed) {
    fuzz::GeneratedProgram program = GenerateMixed(seed);
    fuzz::OracleOptions options;
    options.jobs = 4;
    options.check_ablations = false;  // Covered by the jobs=1 corpus.
    fuzz::OracleVerdict verdict = fuzz::CheckScenario(program, options);
    EXPECT_TRUE(verdict.ok) << "seed " << seed << " (jobs=4) failed at '"
                            << verdict.stage << "': " << verdict.failure;
  }
}

// The range stage's answers are exact: on the first 40 seeds of the
// `esdfuzz --kind mixed` corpus, the search explores the same states and
// instructions with the stage on and off. With it on, it decides every
// guard component, so the corpus makes no SAT call at all.
TEST(FuzzOracleTest, RangeStageKeepsTrajectoryAndDecidesEveryCorpusGuard) {
  uint64_t sat_calls = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz::GeneratorParams params;
    params.seed = seed;
    params.kind = static_cast<fuzz::BugKind>(seed % fuzz::kNumBugKinds);
    fuzz::GeneratedProgram program = fuzz::Generate(params);
    auto dump = fuzz::MakeReport(program);
    ASSERT_TRUE(dump.has_value()) << "seed " << seed;
    core::SynthesisResult runs[2];
    for (bool range : {true, false}) {
      core::SynthesisOptions options;
      options.time_cap_seconds = 20.0;
      options.solver_range = range;
      runs[range ? 0 : 1] =
          core::Synthesizer(program.module.get(), options).Synthesize(*dump);
    }
    const core::SynthesisResult& on = runs[0];
    const core::SynthesisResult& off = runs[1];
    ASSERT_TRUE(on.success) << "seed " << seed << ": " << on.failure_reason;
    EXPECT_EQ(on.instructions, off.instructions) << "seed " << seed;
    EXPECT_EQ(on.states_created, off.states_created) << "seed " << seed;
    EXPECT_EQ(on.states_deduped, off.states_deduped) << "seed " << seed;
    EXPECT_EQ(on.sleep_set_skips, off.sleep_set_skips) << "seed " << seed;
    sat_calls += on.solver.sat_calls;
  }
  EXPECT_EQ(sat_calls, 0u);
}

// Same seed -> byte-identical program text, trigger, and synthesized
// execution file. The whole subsystem is driven by one 64-bit seed, so a
// seed reported by CI is a complete repro token.
TEST(FuzzGeneratorTest, SeedDeterminism) {
  for (uint64_t seed : {1u, 17u, 42u, 99u, 1234u}) {
    fuzz::GeneratedProgram a = GenerateMixed(seed);
    fuzz::GeneratedProgram b = GenerateMixed(seed);
    EXPECT_EQ(a.source, b.source) << "seed " << seed;
    EXPECT_EQ(a.trigger.inputs, b.trigger.inputs) << "seed " << seed;
    EXPECT_EQ(fuzz::ReproText(a), fuzz::ReproText(b)) << "seed " << seed;

    fuzz::OracleOptions options;
    options.check_ablations = false;
    fuzz::OracleVerdict va = fuzz::CheckScenario(a, options);
    fuzz::OracleVerdict vb = fuzz::CheckScenario(b, options);
    ASSERT_TRUE(va.ok) << va.failure;
    ASSERT_TRUE(vb.ok) << vb.failure;
    EXPECT_EQ(replay::ExecutionFileToText(va.result.file),
              replay::ExecutionFileToText(vb.result.file))
        << "seed " << seed;
  }
}

// Distinct seeds must actually diversify the family (no accidental
// constant-program generator).
TEST(FuzzGeneratorTest, SeedsDiversify) {
  std::set<std::string> sources;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    sources.insert(GenerateMixed(seed).source);
  }
  EXPECT_GE(sources.size(), 35u);
}

// Every generated module must parse and verify (checked non-abortingly
// here, unlike ParseWorkload), and the IR printer must round-trip it.
TEST(FuzzGeneratorTest, GeneratedProgramsAreWellFormedAndPrintRoundTrips) {
  for (uint64_t seed = 500; seed < 560; ++seed) {
    fuzz::GeneratedProgram program = GenerateMixed(seed);
    std::string source =
        std::string(workloads::ExternsPreamble()) + program.source;
    ir::Module module;
    ir::ParseResult parsed = ir::ParseModule(source, &module);
    ASSERT_TRUE(parsed.ok) << "seed " << seed << ": " << parsed.error;
    auto errors = ir::Verify(module);
    ASSERT_TRUE(errors.empty()) << "seed " << seed << ": " << errors[0];

    std::string printed = ir::PrintModule(module);
    ir::Module reparsed;
    ir::ParseResult round = ir::ParseModule(printed, &reparsed);
    ASSERT_TRUE(round.ok) << "seed " << seed << ": " << round.error;
    EXPECT_EQ(ir::PrintModule(reparsed), printed) << "seed " << seed;
  }
}

// The registry adapters: "fuzz:<kind>:<seed>" materializes scenarios for
// any registry consumer; deadlock/crash triggers must manifest the planted
// bug concretely.
TEST(FuzzWorkloadAdapterTest, RegistryNamesMaterialize) {
  workloads::Workload deadlock = workloads::MakeWorkload("fuzz:deadlock:7");
  EXPECT_EQ(deadlock.expected_kind, vm::BugInfo::Kind::kDeadlock);
  auto dump = workloads::CaptureDump(*deadlock.module, deadlock.trigger);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->kind, vm::BugInfo::Kind::kDeadlock);

  workloads::Workload crash = workloads::MakeWorkload("fuzz:crash:8");
  auto crash_dump = workloads::CaptureDump(*crash.module, crash.trigger);
  ASSERT_TRUE(crash_dump.has_value());
  EXPECT_EQ(crash_dump->kind, crash.expected_kind);

  // Races carry no sync-script (the racy window has no sync events): the
  // adapter still materializes, and the oracle path reports via the
  // assert-site dump.
  workloads::Workload race = workloads::MakeWorkload("fuzz:race:9");
  EXPECT_EQ(race.expected_kind, vm::BugInfo::Kind::kAssertFail);
  EXPECT_TRUE(race.trigger.schedule.empty());
  EXPECT_NE(race.module, nullptr);
}

// Budget exhaustion is reported as a synthesis-stage failure with the
// engine's reason attached, not conflated with a planted-bug miss.
TEST(FuzzOracleTest, BudgetExhaustionFailsAtSynthesisStage) {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kDeadlock;
  params.seed = 21;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  fuzz::OracleOptions options;
  options.max_states = 2;  // Far below what any deadlock search needs.
  fuzz::OracleVerdict verdict = fuzz::CheckScenario(program, options);
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.stage, "synthesis");
  EXPECT_NE(verdict.failure.find("synthesis failed"), std::string::npos);
}

// A trigger that cannot reach the planted bug (wrong guard inputs) is a
// generator-side defect and must surface as a report-stage failure.
TEST(FuzzOracleTest, NonManifestingTriggerFailsAtReportStage) {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kDeadlock;
  params.seed = 22;
  params.guard_depth = 2;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  for (auto& [name, value] : program.trigger.inputs) {
    value = 0;  // No guard secret is 0 (secrets start at 2): main rejects.
  }
  EXPECT_FALSE(fuzz::MakeReport(program).has_value());
  fuzz::OracleVerdict verdict =
      fuzz::CheckScenario(program, fuzz::OracleOptions{});
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.stage, "report");
}

// A trigger that manifests a bug of the *wrong* kind fails the report
// self-check (nullopt from MakeReport), not a later stage.
TEST(FuzzOracleTest, WrongKindManifestationFailsAtReportStage) {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kCrash;
  params.seed = 23;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  program.expected_kind = vm::BugInfo::Kind::kDeadlock;  // Not what fires.
  EXPECT_FALSE(fuzz::MakeReport(program).has_value());
  fuzz::OracleVerdict verdict =
      fuzz::CheckScenario(program, fuzz::OracleOptions{});
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.stage, "report");
}

// A starved ablation budget reads as ablation divergence while the
// primary run still passes — the knob that bounds pruning-off blowup in
// large sweeps must not silently mask the primary verdict.
TEST(FuzzOracleTest, StarvedAblationBudgetReportsAblationDivergence) {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kDeadlock;
  params.seed = 24;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  fuzz::OracleOptions options;
  options.ablation_max_states = 2;
  fuzz::OracleVerdict verdict = fuzz::CheckScenario(program, options);
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.stage, "ablation-pruning");
  EXPECT_TRUE(verdict.result.success);  // The primary run was fine.
  EXPECT_NE(verdict.failure.find("diverged"), std::string::npos);
}

// Fault injection makes the oracle reject every scenario at the kind
// stage; the shrinker must then cut the spec to at most half its statement
// count while the failure (same stage) survives — the acceptance bar for
// `esdfuzz --shrink`.
TEST(FuzzShrinkerTest, HalvesFailingScenarioWhilePreservingFailure) {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kRace;
  params.seed = 4242;
  params.num_threads = 3;
  params.guard_depth = 3;
  params.noise_per_thread = 6;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  ASSERT_GE(program.spec.StatementCount(), 20u);

  fuzz::OracleOptions options;
  options.expect_kind_override = vm::BugInfo::Kind::kDeadlock;  // Injected.
  fuzz::OracleVerdict before = fuzz::CheckScenario(program, options);
  ASSERT_FALSE(before.ok);
  ASSERT_EQ(before.stage, "kind");

  fuzz::ShrinkStats stats;
  fuzz::GeneratedProgram shrunk =
      fuzz::ShrinkFailingScenario(program, options, &stats);
  EXPECT_LE(stats.stmts_after * 2, stats.stmts_before);
  EXPECT_EQ(stats.stmts_before, program.spec.StatementCount());
  EXPECT_GE(stats.attempts, stats.accepted);

  fuzz::OracleVerdict after = fuzz::CheckScenario(shrunk, options);
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.stage, before.stage);
  // The shrunk scenario is still a well-formed program with the planted
  // bug: without the injected override the oracle accepts it.
  fuzz::OracleOptions honest;
  fuzz::OracleVerdict honest_verdict = fuzz::CheckScenario(shrunk, honest);
  EXPECT_TRUE(honest_verdict.ok) << honest_verdict.failure;
}

// A passing scenario is returned untouched (nothing to shrink).
TEST(FuzzShrinkerTest, PassingScenarioIsUntouched) {
  fuzz::GeneratedProgram program = GenerateMixed(6);
  fuzz::OracleOptions options;
  options.check_ablations = false;
  fuzz::ShrinkStats stats;
  fuzz::GeneratedProgram out =
      fuzz::ShrinkFailingScenario(program, options, &stats);
  EXPECT_EQ(out.source, program.source);
  EXPECT_EQ(stats.stmts_before, stats.stmts_after);
}

// Pinned params are honored (the sweep-dimension contract of the CLI).
TEST(FuzzGeneratorTest, PinnedParamsHonored) {
  fuzz::GeneratorParams params;
  params.kind = fuzz::BugKind::kDeadlock;
  params.seed = 11;
  params.num_threads = 4;
  params.num_locks = 3;
  params.guard_depth = 2;
  params.noise_per_thread = 5;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  EXPECT_EQ(program.spec.threads.size(), 4u);
  EXPECT_EQ(program.spec.num_locks, 3u);
  EXPECT_EQ(program.spec.guards.size(), 2u);
  EXPECT_EQ(program.spec.threads[0].noise.size(), 5u);
  EXPECT_EQ(program.spec.StatementCount(), 4u * 5u + 2u);
}

}  // namespace
}  // namespace esd
