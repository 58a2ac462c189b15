// Cross-layer conformance matrix for the extended POSIX sync surface
// (rwlocks, semaphores, barriers, mutex_trylock). For every primitive
// family there is a named workload with a planted bug, and each must pass
// the same gauntlet: the trigger manifests the planted kind, full-engine
// synthesis rediscovers it from the coredump alone, the execution file
// replays strictly (and via happens-before where the bug is
// sync-manifested), a pruning-weakened configuration agrees on
// feasibility without a state-count blowup in the pruned run, and the
// `--jobs 4` portfolio finds it too. Below the matrix, per-ExternalId unit
// tests pin the blocked/woken bookkeeping of every new primitive.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "src/analysis/lock_order.h"
#include "src/ir/parser.h"
#include "src/ir/verifier.h"
#include "src/core/synthesizer.h"
#include "src/replay/replayer.h"
#include "src/solver/solver.h"
#include "src/vm/engine.h"
#include "src/workloads/workloads.h"

namespace esd {
namespace {

struct MatrixCase {
  const char* name;
  vm::BugInfo::Kind expected;
  // Happens-before replay applies when the buggy window is pinned by sync
  // events. trybank's window is a *failed* trylock between another
  // thread's lock/unlock — expressible since the kTryFail event — so every
  // scenario checks hb.
  bool check_hb;
  // Pruning-weakened agreement configuration. Scenarios whose fully
  // unpruned space is unbounded (the sem borrow window, barrier3's safe
  // subtree under the distance heuristic) weaken one layer at a time;
  // state dedup is precisely the layer that makes them finite.
  bool weakened_dedup;
};

const MatrixCase kMatrix[] = {
    {"rwupgrade", vm::BugInfo::Kind::kDeadlock, true, false},
    {"semdrop", vm::BugInfo::Kind::kDeadlock, true, true},
    {"barrier3", vm::BugInfo::Kind::kDeadlock, true, true},
    {"trybank", vm::BugInfo::Kind::kAssertFail, true, false},
    // C11-atomics family: lock-free bugs whose windows are pinned by atomic
    // schedule events (and, for spscring, store-buffer flush records), so
    // hb replay applies to both.
    {"treiber", vm::BugInfo::Kind::kAssertFail, true, false},
    {"spscring", vm::BugInfo::Kind::kAssertFail, true, false},
};

class SyncConformanceTest : public ::testing::TestWithParam<MatrixCase> {};

// The field report fed to synthesis: the lock-free workloads are detected
// at main's esd_assert and report via the handmade assert-site coredump
// (spscring's buggy interleaving is a store-buffer flush order that no
// concrete scheduled run can even express); the blocking-sync workloads
// capture a concrete dump from their scripted trigger.
std::optional<report::CoreDump> MakeDump(const workloads::Workload& w) {
  if (w.assert_site_report) {
    return workloads::AssertSiteDump(*w.module);
  }
  return workloads::CaptureDump(*w.module, w.trigger);
}

core::SynthesisResult Synthesize(const workloads::Workload& w,
                                 const report::CoreDump& dump,
                                 core::SynthesisOptions options) {
  options.time_cap_seconds = 60.0;
  core::Synthesizer synthesizer(w.module.get(), options);
  return synthesizer.Synthesize(dump);
}

TEST_P(SyncConformanceTest, TriggerManifestsPlantedBug) {
  const MatrixCase& c = GetParam();
  workloads::Workload w = workloads::MakeWorkload(c.name);
  if (w.assert_site_report && w.trigger.schedule.empty()) {
    // spscring has no concrete trigger: its buggy interleaving is a
    // store-buffer flush order, not a sync-event order. The field report
    // is the assert-site dump; check it carries the planted kind.
    EXPECT_EQ(workloads::AssertSiteDump(*w.module).kind, c.expected) << c.name;
    return;
  }
  auto dump = workloads::CaptureDump(*w.module, w.trigger);
  ASSERT_TRUE(dump.has_value()) << c.name;
  EXPECT_EQ(dump->kind, c.expected) << c.name;
}

TEST_P(SyncConformanceTest, SynthesisFindsBugAndRepliesReplay) {
  const MatrixCase& c = GetParam();
  workloads::Workload w = workloads::MakeWorkload(c.name);
  auto dump = MakeDump(w);
  ASSERT_TRUE(dump.has_value()) << c.name;
  core::SynthesisResult r = Synthesize(w, *dump, {});
  ASSERT_TRUE(r.success) << c.name << ": " << r.failure_reason;
  EXPECT_EQ(r.bug.kind, c.expected) << c.name;
  replay::ReplayResult strict =
      replay::Replay(*w.module, r.file, replay::ReplayMode::kStrict);
  EXPECT_TRUE(strict.bug_reproduced) << c.name << ": " << strict.bug.message;
  if (c.check_hb) {
    replay::ReplayResult hb =
        replay::Replay(*w.module, r.file, replay::ReplayMode::kHappensBefore);
    EXPECT_TRUE(hb.bug_reproduced) << c.name << " (hb): " << hb.bug.message;
  }
}

TEST_P(SyncConformanceTest, PruningOnAndWeakenedAgree) {
  const MatrixCase& c = GetParam();
  workloads::Workload w = workloads::MakeWorkload(c.name);
  auto dump = MakeDump(w);
  ASSERT_TRUE(dump.has_value()) << c.name;

  core::SynthesisResult full = Synthesize(w, *dump, {});
  ASSERT_TRUE(full.success) << c.name << " (pruned): " << full.failure_reason;

  core::SynthesisOptions weakened;
  weakened.sleep_sets = false;
  weakened.dedup = c.weakened_dedup;
  core::SynthesisResult open = Synthesize(w, *dump, weakened);
  ASSERT_TRUE(open.success) << c.name << " (weakened): " << open.failure_reason;
  EXPECT_EQ(open.bug.kind, c.expected) << c.name;
  replay::ReplayResult r =
      replay::Replay(*w.module, open.file, replay::ReplayMode::kStrict);
  EXPECT_TRUE(r.bug_reproduced) << c.name << " (weakened): " << r.bug.message;
  // State-count agreement: the pruned run must not explore wildly more
  // than the weakened one (pruning layers may reorder the search, so exact
  // ordering is not guaranteed; a blowup is).
  EXPECT_LE(full.states_created, open.states_created * 2 + 64) << c.name;
}

// Four workers draining one logical frontier: children are routed by
// fingerprint to home workers, idle workers steal.
TEST_P(SyncConformanceTest, PortfolioJobs4FindsBug) {
  const MatrixCase& c = GetParam();
  workloads::Workload w = workloads::MakeWorkload(c.name);
  auto dump = MakeDump(w);
  ASSERT_TRUE(dump.has_value()) << c.name;
  core::SynthesisOptions options;
  options.jobs = 4;
  core::SynthesisResult r = Synthesize(w, *dump, options);
  ASSERT_TRUE(r.success) << c.name << " (jobs=4): " << r.failure_reason;
  EXPECT_EQ(r.bug.kind, c.expected) << c.name;
  replay::ReplayResult strict =
      replay::Replay(*w.module, r.file, replay::ReplayMode::kStrict);
  EXPECT_TRUE(strict.bug_reproduced) << c.name << " (jobs=4)";
}

INSTANTIATE_TEST_SUITE_P(SyncSurface, SyncConformanceTest,
                         ::testing::ValuesIn(kMatrix),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The safe configurations of every scenario stay bug-free under random
// schedules: the planted bugs are input-armed, not spurious.
TEST(SyncConformanceSafeModes, NoFalsePositives) {
  struct SafeMode {
    const char* name;
    std::map<std::string, uint64_t> inputs;
  };
  const SafeMode kSafe[] = {
      {"rwupgrade", {{"refresh_mode", 's'}}},
      {"semdrop", {{"handoff_mode", 's'}}},
      {"barrier3", {{"parties", 2}}},
      {"trybank", {{"audit_mode", 'c'}}},
      {"treiber", {{"pop_mode", 's'}}},
      {"spscring", {{"fence_mode", 's'}}},
  };
  for (const SafeMode& mode : kSafe) {
    workloads::Workload w = workloads::MakeWorkload(mode.name);
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      solver::ConstraintSolver solver;
      workloads::PrefixInputProvider inputs(mode.inputs);
      workloads::RandomSchedulePolicy policy(seed);
      vm::Interpreter::Options options;
      options.input_provider = &inputs;
      options.policy = &policy;
      vm::Interpreter interp(w.module.get(), &solver, options);
      vm::StatePtr s = interp.MakeInitialState(*w.module->FindFunction("main"), 1);
      vm::SingleRunResult r = vm::RunToCompletion(interp, *s, 200000);
      ASSERT_TRUE(r.completed) << mode.name << " seed " << seed;
      EXPECT_FALSE(r.bug.IsBug())
          << mode.name << " seed " << seed << ": " << r.bug.message;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked/woken bookkeeping unit tests: one concrete program per
// ExternalId family, with the interleaving pinned by yields (concrete
// mode runs a thread until it blocks or yields). Results of try calls are
// printed so the final output encodes the semantics.
// ---------------------------------------------------------------------------

struct ConcreteRun {
  vm::SingleRunResult result;
  vm::StatePtr state;
};

ConcreteRun RunConcrete(const char* body, uint64_t max_instructions = 100000) {
  auto module = workloads::ParseWorkload(body);
  auto solver = std::make_shared<solver::ConstraintSolver>();
  vm::Interpreter interp(module.get(), solver.get(), {});
  ConcreteRun run;
  run.state = interp.MakeInitialState(*module->FindFunction("main"), 1);
  run.result = vm::RunToCompletion(interp, *run.state, max_instructions);
  return run;
}

// Steps until `done` returns true (or the state finishes); returns the
// final StepResult.
vm::StepResult StepUntil(vm::Interpreter& interp, vm::ExecutionState& state,
                         const std::function<bool(const vm::ExecutionState&)>& done,
                         int max_steps = 10000) {
  vm::StepResult last;
  for (int i = 0; i < max_steps && !done(state); ++i) {
    last = interp.Step(state);
    if (last.state_done) {
      break;
    }
  }
  return last;
}

TEST(RwLockSemantics, ReadersShareWritersExclude) {
  ConcreteRun run = RunConcrete(R"(
global $rw = zero 8
func @reader(%arg: ptr) : void {
entry:
  call @rwlock_rdlock($rw)
  call @yield()
  call @rwlock_unlock($rw)
  ret
}
func @main() : i32 {
entry:
  call @rwlock_init($rw)
  %t = call @thread_create(@reader, null)
  call @yield()
  %r1 = call @rwlock_tryrdlock($rw)  ; reader holds read: shares -> 1
  %w1 = zext i64, %r1
  call @print_i64(%w1)
  %r2 = call @rwlock_trywrlock($rw)  ; another reader present -> 0
  %w2 = zext i64, %r2
  call @print_i64(%w2)
  call @rwlock_unlock($rw)           ; drop main's read hold
  call @thread_join(%t)
  %r3 = call @rwlock_trywrlock($rw)  ; free: write-acquire -> 1
  %w3 = zext i64, %r3
  call @print_i64(%w3)
  call @rwlock_unlock($rw)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "101");
}

TEST(RwLockSemantics, WriterBlocksReaderAndUnlockWakes) {
  ConcreteRun run = RunConcrete(R"(
global $rw = zero 8
func @writer(%arg: ptr) : void {
entry:
  call @rwlock_wrlock($rw)
  call @yield()
  call @print_i64(i64 1)
  call @rwlock_unlock($rw)
  ret
}
func @main() : i32 {
entry:
  call @rwlock_init($rw)
  %t = call @thread_create(@writer, null)
  call @yield()
  call @rwlock_rdlock($rw)   ; writer active: blocks until its unlock
  call @print_i64(i64 2)
  call @rwlock_unlock($rw)
  call @thread_join(%t)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "12");
}

TEST(RwLockSemantics, SoleReaderUpgradesInPlace) {
  ConcreteRun run = RunConcrete(R"(
global $rw = zero 8
func @main() : i32 {
entry:
  call @rwlock_init($rw)
  call @rwlock_rdlock($rw)
  %r = call @rwlock_trywrlock($rw)  ; sole reader: atomic upgrade -> 1
  %wr = zext i64, %r
  call @print_i64(%wr)
  call @rwlock_unlock($rw)          ; one unlock releases the write hold
  %w = call @rwlock_trywrlock($rw)  ; fully free again -> 1
  %ww = zext i64, %w
  call @print_i64(%ww)
  call @rwlock_unlock($rw)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "11");
}

TEST(RwLockSemantics, UnlockWithoutHoldIsInvalidSync) {
  ConcreteRun run = RunConcrete(R"(
global $rw = zero 8
func @main() : i32 {
entry:
  call @rwlock_init($rw)
  call @rwlock_unlock($rw)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_EQ(run.result.bug.kind, vm::BugInfo::Kind::kInvalidSync);
}

TEST(RwLockSemantics, TryByActiveWriterFailsWithoutDeadlock) {
  // A try operation never blocks, so the writer's own re-request returns 0
  // (POSIX EBUSY/EDEADLK) instead of a self-deadlock report.
  ConcreteRun run = RunConcrete(R"(
global $rw = zero 8
func @main() : i32 {
entry:
  call @rwlock_wrlock($rw)
  %r = call @rwlock_tryrdlock($rw)
  %wr = zext i64, %r
  call @print_i64(%wr)
  %w = call @rwlock_trywrlock($rw)
  %ww = zext i64, %w
  call @print_i64(%ww)
  call @rwlock_unlock($rw)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "00");
}

TEST(RwLockSemantics, WriterReacquireIsSelfDeadlock) {
  ConcreteRun run = RunConcrete(R"(
global $rw = zero 8
func @main() : i32 {
entry:
  call @rwlock_wrlock($rw)
  call @rwlock_wrlock($rw)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_EQ(run.result.bug.kind, vm::BugInfo::Kind::kDeadlock);
}

TEST(RwLockSemantics, BlockedStatusAndWaiterBookkeeping) {
  auto module = workloads::ParseWorkload(R"(
global $rw = zero 8
func @upgrader(%arg: ptr) : void {
entry:
  call @rwlock_rdlock($rw)
  call @rwlock_wrlock($rw)
  call @rwlock_unlock($rw)
  ret
}
func @main() : i32 {
entry:
  call @rwlock_init($rw)
  %t1 = call @thread_create(@upgrader, null)
  %t2 = call @thread_create(@upgrader, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  solver::ConstraintSolver solver;
  // Force the upgrade deadlock: run T1 to its rdlock, then T2, then both
  // upgrade attempts block.
  workloads::ScriptedSyncPolicy policy({{1, 1, 2}, {2, 1, 1}});
  vm::Interpreter::Options options;
  options.policy = &policy;
  vm::Interpreter interp(module.get(), &solver, options);
  vm::StatePtr state = interp.MakeInitialState(*module->FindFunction("main"), 1);
  vm::StepResult last = StepUntil(interp, *state, [](const vm::ExecutionState&) {
    return false;  // Run to completion; the deadlock report ends the run.
  });
  ASSERT_TRUE(last.state_done);
  ASSERT_EQ(last.bug.kind, vm::BugInfo::Kind::kDeadlock);
  // Both workers must be parked as write-waiters on the rwlock, whose
  // reader multiset still holds both their read holds.
  int rw_waiters = 0;
  uint64_t rw_addr = 0;
  for (const vm::Thread& t : state->threads) {
    if (t.status == vm::ThreadStatus::kBlockedRwWrite) {
      ++rw_waiters;
      EXPECT_NE(t.wait_sync, 0u);
      rw_addr = t.wait_sync;
    }
  }
  EXPECT_EQ(rw_waiters, 2);
  ASSERT_EQ(state->rwlocks().count(rw_addr), 1u);
  const vm::RwLockState& rw = state->rwlocks().at(rw_addr);
  EXPECT_EQ(rw.writer, ir::kInvalidIndex);
  EXPECT_EQ(rw.readers.size(), 2u);
}

TEST(SemaphoreSemantics, CountingAndTryWait) {
  ConcreteRun run = RunConcrete(R"(
global $s = zero 8
func @main() : i32 {
entry:
  call @sem_init($s, i32 2)
  %a = call @sem_trywait($s)   ; 2 -> 1: 1
  %wa = zext i64, %a
  call @print_i64(%wa)
  %b = call @sem_trywait($s)   ; 1 -> 0: 1
  %wb = zext i64, %b
  call @print_i64(%wb)
  %c = call @sem_trywait($s)   ; empty: 0
  %wc = zext i64, %c
  call @print_i64(%wc)
  call @sem_post($s)
  %d = call @sem_trywait($s)   ; replenished: 1
  %wd = zext i64, %d
  call @print_i64(%wd)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "1101");
}

TEST(SemaphoreSemantics, WaitBlocksAndPostWakes) {
  auto module = workloads::ParseWorkload(R"(
global $s = zero 8
func @waiter(%arg: ptr) : void {
entry:
  call @sem_wait($s)
  call @print_i64(i64 7)
  ret
}
func @main() : i32 {
entry:
  call @sem_init($s, i32 0)
  %t = call @thread_create(@waiter, null)
  call @yield()
  call @sem_post($s)
  call @thread_join(%t)
  ret i32 0
}
)");
  solver::ConstraintSolver solver;
  vm::Interpreter interp(module.get(), &solver, {});
  vm::StatePtr state = interp.MakeInitialState(*module->FindFunction("main"), 1);
  // After main's yield the waiter must be parked on the semaphore.
  StepUntil(interp, *state, [](const vm::ExecutionState& s) {
    for (const vm::Thread& t : s.threads) {
      if (t.status == vm::ThreadStatus::kBlockedSem) {
        return true;
      }
    }
    return false;
  });
  const vm::Thread* waiter = nullptr;
  for (const vm::Thread& t : state->threads) {
    if (t.status == vm::ThreadStatus::kBlockedSem) {
      waiter = &t;
    }
  }
  ASSERT_NE(waiter, nullptr);
  EXPECT_NE(waiter->wait_sync, 0u);
  EXPECT_EQ(state->semaphores().at(waiter->wait_sync).count, 0u);
  // Run to completion: the post wakes the waiter and it prints.
  vm::SingleRunResult rest = vm::RunToCompletion(interp, *state, 100000);
  ASSERT_TRUE(rest.completed);
  EXPECT_FALSE(rest.bug.IsBug()) << rest.bug.message;
  EXPECT_EQ(state->output, "7");
}

TEST(BarrierSemantics, LastArrivalReleasesEveryone) {
  ConcreteRun run = RunConcrete(R"(
global $b = zero 8
func @arriver(%arg: ptr) : void {
entry:
  call @barrier_wait($b)
  call @print_i64(i64 5)
  ret
}
func @main() : i32 {
entry:
  call @barrier_init($b, i32 2)
  %t = call @thread_create(@arriver, null)
  call @yield()                 ; arriver parks (1 of 2)
  call @print_i64(i64 3)
  call @barrier_wait($b)        ; second arrival: both pass
  call @thread_join(%t)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "35");
}

TEST(BarrierSemantics, CountMismatchDeadlocksAndZeroCountRejected) {
  ConcreteRun mismatch = RunConcrete(R"(
global $b = zero 8
func @arriver(%arg: ptr) : void {
entry:
  call @barrier_wait($b)
  ret
}
func @main() : i32 {
entry:
  call @barrier_init($b, i32 3)
  %t = call @thread_create(@arriver, null)
  call @thread_join(%t)
  ret i32 0
}
)");
  ASSERT_TRUE(mismatch.result.completed);
  EXPECT_EQ(mismatch.result.bug.kind, vm::BugInfo::Kind::kDeadlock);
  bool parked_on_barrier = false;
  for (const vm::Thread& t : mismatch.state->threads) {
    parked_on_barrier |= t.status == vm::ThreadStatus::kBlockedBarrier;
  }
  EXPECT_TRUE(parked_on_barrier);

  ConcreteRun zero = RunConcrete(R"(
global $b = zero 8
func @main() : i32 {
entry:
  call @barrier_init($b, i32 0)
  ret i32 0
}
)");
  ASSERT_TRUE(zero.result.completed);
  EXPECT_EQ(zero.result.bug.kind, vm::BugInfo::Kind::kInvalidSync);
}

TEST(MutexTryLockSemantics, SucceedsFreeFailsHeldNeverBlocks) {
  ConcreteRun run = RunConcrete(R"(
global $m = zero 8
func @holder(%arg: ptr) : void {
entry:
  call @mutex_lock($m)
  call @yield()
  call @mutex_unlock($m)
  ret
}
func @main() : i32 {
entry:
  call @mutex_init($m)
  %t = call @thread_create(@holder, null)
  call @yield()
  %r1 = call @mutex_trylock($m)   ; holder owns it -> 0, no blocking
  %w1 = zext i64, %r1
  call @print_i64(%w1)
  call @thread_join(%t)
  %r2 = call @mutex_trylock($m)   ; free -> 1
  %w2 = zext i64, %r2
  call @print_i64(%w2)
  %r3 = call @mutex_trylock($m)   ; self-held -> 0 (not a self-deadlock)
  %w3 = zext i64, %r3
  call @print_i64(%w3)
  call @mutex_unlock($m)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "010");
}

TEST(ExternalArity, ShortCallFailsCleanlyInsteadOfReadingOutOfBounds) {
  // A module may declare its own (shorter) extern signatures, bypassing
  // the canonical preamble; the verifier checks calls only against the
  // module's declarations. The interpreter must reject the short call as
  // a malformed-module internal error, never index args[] out of bounds.
  const char* kShortSemInit = R"(
extern @sem_init(ptr)
global $s = zero 8
func @main() : i32 {
entry:
  call @sem_init($s)
  ret i32 0
}
)";
  auto module = std::make_shared<ir::Module>();
  ir::ParseResult parsed = ir::ParseModule(kShortSemInit, module.get());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_TRUE(ir::Verify(*module).empty());
  solver::ConstraintSolver solver;
  vm::Interpreter interp(module.get(), &solver, {});
  vm::StatePtr state = interp.MakeInitialState(*module->FindFunction("main"), 1);
  vm::SingleRunResult r = vm::RunToCompletion(interp, *state, 1000);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bug.kind, vm::BugInfo::Kind::kInternalError);
  EXPECT_NE(r.bug.message.find("too few arguments"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Static lock-order analysis over the new primitives.
// ---------------------------------------------------------------------------

TEST(SyncLockOrder, RwlockWriteInversionWarnsSharedSharedDoesNot) {
  // Write-mode inversion: a real AB-BA deadlock candidate.
  auto write_inverted = workloads::ParseWorkload(R"(
global $a = zero 8
global $b = zero 8
func @f1(%arg: ptr) : void {
entry:
  call @rwlock_wrlock($a)
  call @rwlock_wrlock($b)
  call @rwlock_unlock($b)
  call @rwlock_unlock($a)
  ret
}
func @f2(%arg: ptr) : void {
entry:
  call @rwlock_wrlock($b)
  call @rwlock_wrlock($a)
  call @rwlock_unlock($a)
  call @rwlock_unlock($b)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@f1, null)
  %t2 = call @thread_create(@f2, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  EXPECT_FALSE(analysis::FindLockOrderWarnings(*write_inverted).empty());

  // Read-mode inversion on both locks: readers share, no deadlock, no
  // warning.
  auto read_inverted = workloads::ParseWorkload(R"(
global $a = zero 8
global $b = zero 8
func @f1(%arg: ptr) : void {
entry:
  call @rwlock_rdlock($a)
  call @rwlock_rdlock($b)
  call @rwlock_unlock($b)
  call @rwlock_unlock($a)
  ret
}
func @f2(%arg: ptr) : void {
entry:
  call @rwlock_rdlock($b)
  call @rwlock_rdlock($a)
  call @rwlock_unlock($a)
  call @rwlock_unlock($b)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@f1, null)
  %t2 = call @thread_create(@f2, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  EXPECT_TRUE(analysis::FindLockOrderWarnings(*read_inverted).empty());
}

TEST(SyncLockOrder, UpgradedHoldCountsAsExclusive) {
  // Read-then-upgrade before taking the second lock: the held mode must be
  // exclusive after the upgrade, so the inverted pair still warns (a stale
  // shared mode would trip the shared/shared filter and hide it).
  auto upgraded = workloads::ParseWorkload(R"(
global $a = zero 8
global $b = zero 8
func @f1(%arg: ptr) : void {
entry:
  call @rwlock_rdlock($a)
  call @rwlock_wrlock($a)
  call @rwlock_rdlock($b)
  call @rwlock_unlock($b)
  call @rwlock_unlock($a)
  ret
}
func @f2(%arg: ptr) : void {
entry:
  call @rwlock_rdlock($b)
  call @rwlock_wrlock($b)
  call @rwlock_rdlock($a)
  call @rwlock_unlock($a)
  call @rwlock_unlock($b)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@f1, null)
  %t2 = call @thread_create(@f2, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  EXPECT_FALSE(analysis::FindLockOrderWarnings(*upgraded).empty());
}

TEST(SyncLockOrder, SemWaitParticipatesTrylockRecordsNoEdge) {
  // Binary-semaphore-as-mutex inversion against a mutex: warned.
  auto sem_inverted = workloads::ParseWorkload(R"(
global $m = zero 8
global $s = zero 8
func @f1(%arg: ptr) : void {
entry:
  call @mutex_lock($m)
  call @sem_wait($s)
  call @sem_post($s)
  call @mutex_unlock($m)
  ret
}
func @f2(%arg: ptr) : void {
entry:
  call @sem_wait($s)
  call @mutex_lock($m)
  call @mutex_unlock($m)
  call @sem_post($s)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@f1, null)
  %t2 = call @thread_create(@f2, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  EXPECT_FALSE(analysis::FindLockOrderWarnings(*sem_inverted).empty());

  // The same inversion but the inner acquisition is a trylock: it cannot
  // block, so no deadlock and no warning.
  auto try_inner = workloads::ParseWorkload(R"(
global $m1 = zero 8
global $m2 = zero 8
func @f1(%arg: ptr) : void {
entry:
  call @mutex_lock($m1)
  %r = call @mutex_trylock($m2)
  call @mutex_unlock($m1)
  ret
}
func @f2(%arg: ptr) : void {
entry:
  call @mutex_lock($m2)
  %r = call @mutex_trylock($m1)
  call @mutex_unlock($m2)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@f1, null)
  %t2 = call @thread_create(@f2, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  EXPECT_TRUE(analysis::FindLockOrderWarnings(*try_inner).empty());
}

// ---------------------------------------------------------------------------
// C11-atomics concrete semantics: the RMW family returns the old value and
// applies its update; relaxed stores buffer with own-thread store-to-load
// forwarding until a fence (or release-or-stronger op) drains them.
// ---------------------------------------------------------------------------

TEST(AtomicSemantics, RmwOpsReturnOldValueAndApply) {
  ConcreteRun run = RunConcrete(R"(
global $c = zero 4
func @main() : i32 {
entry:
  %a = call @atomic_fetch_add($c, i32 5, i32 5)   ; 0 -> 5, returns 0
  %wa = zext i64, %a
  call @print_i64(%wa)
  %b = call @atomic_exchange($c, i32 9, i32 5)    ; 5 -> 9, returns 5
  %wb = zext i64, %b
  call @print_i64(%wb)
  %s = call @atomic_cas($c, i32 9, i32 3, i32 5)  ; matches: 9 -> 3, returns 9
  %ws = zext i64, %s
  call @print_i64(%ws)
  %f = call @atomic_cas($c, i32 9, i32 7, i32 5)  ; stale expected: returns 3
  %wf = zext i64, %f
  call @print_i64(%wf)
  %v = call @atomic_load($c, i32 5)               ; failed CAS left 3
  %wv = zext i64, %v
  call @print_i64(%wv)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "05933");
}

TEST(AtomicSemantics, RelaxedStoreForwardsThenFenceDrains) {
  ConcreteRun run = RunConcrete(R"(
global $x = zero 4
func @main() : i32 {
entry:
  call @atomic_store($x, i32 7, i32 0)   ; relaxed: sits in the store buffer
  %f = call @atomic_load($x, i32 0)      ; own-buffer forwarding -> 7
  %wf = zext i64, %f
  call @print_i64(%wf)
  %m = load i32, $x                      ; plain load bypasses the buffer: 0
  %wm = zext i64, %m
  call @print_i64(%wm)
  call @atomic_fence(i32 5)              ; seq_cst fence drains the buffer
  %d = load i32, $x                      ; now written through
  %wd = zext i64, %d
  call @print_i64(%wd)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "707");
}

TEST(AtomicSemantics, ReleaseStoreWritesThroughAndDrains) {
  ConcreteRun run = RunConcrete(R"(
global $x = zero 4
global $y = zero 4
func @main() : i32 {
entry:
  call @atomic_store($x, i32 3, i32 0)   ; relaxed: buffered
  call @atomic_store($y, i32 4, i32 3)   ; release: drains $x, writes $y
  %a = load i32, $x
  %wa = zext i64, %a
  call @print_i64(%wa)
  %b = load i32, $y
  %wb = zext i64, %b
  call @print_i64(%wb)
  ret i32 0
}
)");
  ASSERT_TRUE(run.result.completed);
  EXPECT_FALSE(run.result.bug.IsBug()) << run.result.bug.message;
  EXPECT_EQ(run.state->output, "34");
}

}  // namespace
}  // namespace esd
