// Tests for the replay layer (execution files, policies, fingerprints) and
// the core goal/validation logic.
#include <gtest/gtest.h>

#include "src/core/goal.h"
#include "src/core/warning_validation.h"
#include "src/replay/execution_file.h"
#include "src/replay/replayer.h"
#include "src/workloads/workloads.h"

namespace esd {
namespace {

TEST(ExecutionFileTest, TextRoundTripPreservesEverything) {
  replay::ExecutionFile f;
  f.bug_kind = "deadlock";
  f.description = "two threads, two locks";
  f.inputs = {{"getchar#1", 'm'}, {"env:mode[0]#2", 'Y'}};
  f.strict = {{10, 1}, {25, 2}, {40, 1}};
  f.happens_before = {{vm::SchedEvent::Kind::kMutexLock, 1, 77, "f:entry:0"},
                      {vm::SchedEvent::Kind::kMutexUnlock, 1, 77, "f:entry:3"}};
  std::string text = replay::ExecutionFileToText(f);
  std::string error;
  auto parsed = replay::ParseExecutionFile(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->bug_kind, f.bug_kind);
  EXPECT_EQ(parsed->description, f.description);
  EXPECT_EQ(parsed->inputs, f.inputs);
  ASSERT_EQ(parsed->strict.size(), 3u);
  EXPECT_EQ(parsed->strict[1].step, 25u);
  EXPECT_EQ(parsed->strict[1].tid, 2u);
  ASSERT_EQ(parsed->happens_before.size(), 2u);
  EXPECT_EQ(parsed->happens_before[0].site, "f:entry:0");
}

TEST(ExecutionFileTest, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(replay::ParseExecutionFile("not an execution", &error).has_value());
  EXPECT_FALSE(
      replay::ParseExecutionFile("execution v1\nfrobnicate 3\n", &error).has_value());
}

// A malformed execution file must produce a precise error, not a nonsense
// schedule that playback then chases. One case per corruption class.
TEST(ExecutionFileTest, RejectsMalformedRecords) {
  auto parse_fails = [](const std::string& body, const std::string& want_error) {
    std::string error;
    auto parsed = replay::ParseExecutionFile("execution v1\n" + body, &error);
    EXPECT_FALSE(parsed.has_value()) << body;
    EXPECT_NE(error.find(want_error), std::string::npos)
        << "for body '" << body << "' got error '" << error << "'";
  };

  // Truncated records (missing fields).
  parse_fails("bug\n", "truncated bug");
  parse_fails("switch 12\n", "truncated switch");
  parse_fails("hb lock 1 77\n", "truncated hb");
  parse_fails("input getchar#1 =\n", "malformed input");
  parse_fails("input getchar#1\n", "truncated input");

  // Trailing garbage after a complete record.
  parse_fails("switch 12 1 junk\n", "trailing garbage");
  parse_fails("hb lock 1 77 f:entry:0 junk\n", "trailing garbage");
  parse_fails("input getchar#1 = 9 junk\n", "trailing garbage");
  parse_fails("bug deadlock junk\n", "trailing garbage");

  // Non-numeric where numbers are required.
  parse_fails("switch twelve 1\n", "truncated switch");
  parse_fails("input getchar#1 = many\n", "malformed input");

  // Out-of-range tids.
  parse_fails("switch 5 99999999\n", "out of range");
  parse_fails("hb lock 99999999 77 f:entry:0\n", "out of range");

  // Out-of-order switch points (a non-causal strict schedule). Equal steps
  // are allowed: nested schedule forks legitimately record two switches at
  // one step, and strict replay lets the later one win.
  parse_fails("switch 9 1\nswitch 5 2\n", "out of step order");
  {
    std::string error;
    EXPECT_TRUE(replay::ParseExecutionFile(
                    "execution v1\nswitch 5 1\nswitch 5 2\n", &error)
                    .has_value())
        << error;
  }

  // Duplicate thread creations and creation of the main thread.
  parse_fails("hb create 3 0 f:entry:0\nhb create 3 0 f:entry:1\n",
              "duplicate hb create");
  parse_fails("hb create 0 0 f:entry:0\n", "thread 0");

  // Duplicate inputs (one value would silently win).
  parse_fails("input getchar#1 = 9\ninput getchar#1 = 10\n", "duplicate input");

  // The happy path still parses.
  std::string error;
  auto ok = replay::ParseExecutionFile(
      "execution v1\nbug deadlock\ndescription two threads\n"
      "input getchar#1 = 109\nswitch 5 1\nswitch 9 2\n"
      "hb create 1 0 f:entry:0\nhb lock 1 77 f:entry:1\n",
      &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->strict.size(), 2u);
  EXPECT_EQ(ok->happens_before.size(), 2u);
}

TEST(ExecutionFileTest, SynthesizedFilesRoundTripThroughParser) {
  // End-to-end guard: what BuildExecutionFile emits must satisfy the
  // hardened parser (step ordering, tid ranges, single creation per tid).
  workloads::Workload w = workloads::MakeWorkload("listing1");
  auto dump = workloads::CaptureDump(*w.module, w.trigger);
  ASSERT_TRUE(dump.has_value());
  core::Synthesizer synth(w.module.get(), {});
  auto result = synth.Synthesize(*dump);
  ASSERT_TRUE(result.success) << result.failure_reason;
  std::string error;
  auto parsed =
      replay::ParseExecutionFile(replay::ExecutionFileToText(result.file), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(replay::Fingerprint(*parsed), replay::Fingerprint(result.file));
}

TEST(FingerprintTest, IdenticalExecutionsShareFingerprint) {
  // §8 triage: two dumps of the same bug synthesize to the same execution.
  workloads::Workload w = workloads::MakeWorkload("mkfifo");
  auto dump1 = workloads::CaptureDump(*w.module, w.trigger);
  auto dump2 = workloads::CaptureDump(*w.module, w.trigger);
  ASSERT_TRUE(dump1.has_value() && dump2.has_value());
  core::Synthesizer s1(w.module.get(), {});
  core::Synthesizer s2(w.module.get(), {});
  auto r1 = s1.Synthesize(*dump1);
  auto r2 = s2.Synthesize(*dump2);
  ASSERT_TRUE(r1.success && r2.success);
  EXPECT_EQ(replay::Fingerprint(r1.file), replay::Fingerprint(r2.file));
}

TEST(FingerprintTest, DifferentBugsDiffer) {
  workloads::Workload w1 = workloads::MakeWorkload("mkfifo");
  workloads::Workload w2 = workloads::MakeWorkload("mknod");
  auto d1 = workloads::CaptureDump(*w1.module, w1.trigger);
  auto d2 = workloads::CaptureDump(*w2.module, w2.trigger);
  core::Synthesizer s1(w1.module.get(), {});
  core::Synthesizer s2(w2.module.get(), {});
  auto r1 = s1.Synthesize(*d1);
  auto r2 = s2.Synthesize(*d2);
  ASSERT_TRUE(r1.success && r2.success);
  EXPECT_NE(replay::Fingerprint(r1.file), replay::Fingerprint(r2.file));
}

TEST(ReplayPolicyTest, StrictPolicyTracksSwitchPoints) {
  replay::ExecutionFile f;
  f.strict = {{5, 1}, {9, 2}};
  replay::StrictReplayPolicy policy(&f);
  vm::ExecutionState state;
  state.steps = 0;
  EXPECT_EQ(policy.ForceSwitch(state), 0u);  // Before any switch: thread 0.
  state.steps = 5;
  EXPECT_EQ(policy.ForceSwitch(state), 1u);
  state.steps = 8;
  EXPECT_EQ(policy.ForceSwitch(state), 1u);
  state.steps = 9;
  EXPECT_EQ(policy.ForceSwitch(state), 2u);
  state.steps = 100;
  EXPECT_EQ(policy.ForceSwitch(state), 2u);
}

TEST(ReplayPolicyTest, WrongInputsDoNotReproduce) {
  // Integrity check: playback honestly reports when the bug does not
  // manifest (here: an execution file with the inputs zeroed out).
  workloads::Workload w = workloads::MakeWorkload("mknod");
  auto dump = workloads::CaptureDump(*w.module, w.trigger);
  core::Synthesizer synth(w.module.get(), {});
  auto result = synth.Synthesize(*dump);
  ASSERT_TRUE(result.success);
  replay::ExecutionFile sabotaged = result.file;
  for (auto& [name, value] : sabotaged.inputs) {
    value = 0;
  }
  replay::ReplayResult r =
      replay::Replay(*w.module, sabotaged, replay::ReplayMode::kStrict);
  EXPECT_FALSE(r.bug_reproduced);
}

TEST(GoalTest, CrashGoalMatchRequiresSamePcAndFaultClass) {
  core::Goal goal;
  goal.kind = vm::BugInfo::Kind::kNullDeref;
  core::ThreadGoal tg;
  tg.tid = 0;
  tg.target = ir::InstRef{1, 2, 3};
  goal.threads.push_back(tg);
  goal.fault_addr = 0;  // Null fault.

  vm::ExecutionState state;
  vm::BugInfo bug;
  bug.kind = vm::BugInfo::Kind::kNullDeref;
  bug.pc = ir::InstRef{1, 2, 3};
  bug.fault_addr = 0;
  EXPECT_TRUE(core::GoalMatches(goal, state, bug));

  bug.pc = ir::InstRef{1, 2, 4};  // Different instruction.
  EXPECT_FALSE(core::GoalMatches(goal, state, bug));

  bug.pc = ir::InstRef{1, 2, 3};
  bug.kind = vm::BugInfo::Kind::kOutOfBounds;  // Different kind.
  EXPECT_FALSE(core::GoalMatches(goal, state, bug));
}

TEST(GoalTest, DeadlockMatchChecksBlockedSites) {
  core::Goal goal;
  goal.kind = vm::BugInfo::Kind::kDeadlock;
  core::ThreadGoal t1;
  t1.tid = 1;
  t1.target = ir::InstRef{0, 1, 0};
  core::ThreadGoal t2;
  t2.tid = 2;
  t2.target = ir::InstRef{0, 2, 0};
  goal.threads = {t1, t2};

  vm::ExecutionState state;
  auto add_thread = [&state](uint32_t id, ir::InstRef pc, vm::ThreadStatus status) {
    vm::Thread t;
    t.id = id;
    t.status = status;
    vm::StackFrame f;
    f.func = pc.func;
    f.block = pc.block;
    f.inst = pc.inst;
    t.frames.push_back(f);
    state.threads.push_back(std::move(t));
  };
  add_thread(1, ir::InstRef{0, 1, 0}, vm::ThreadStatus::kBlockedMutex);
  add_thread(2, ir::InstRef{0, 2, 0}, vm::ThreadStatus::kBlockedMutex);

  vm::BugInfo bug;
  bug.kind = vm::BugInfo::Kind::kDeadlock;
  EXPECT_TRUE(core::GoalMatches(goal, state, bug));

  // Wrong site for thread 2.
  state.threads[1].frames[0].block = 9;
  EXPECT_FALSE(core::GoalMatches(goal, state, bug));
}

TEST(GoalTest, WildcardThreadsMatchDistinctThreads) {
  core::Goal goal;
  goal.kind = vm::BugInfo::Kind::kDeadlock;
  core::ThreadGoal any1;
  any1.tid = core::kAnyTid;
  any1.target = ir::InstRef{0, 1, 0};
  core::ThreadGoal any2;
  any2.tid = core::kAnyTid;
  any2.target = ir::InstRef{0, 1, 0};  // Same site twice.
  goal.threads = {any1, any2};

  vm::ExecutionState state;
  vm::Thread t;
  t.id = 5;
  t.status = vm::ThreadStatus::kBlockedMutex;
  vm::StackFrame f;
  f.func = 0;
  f.block = 1;
  f.inst = 0;
  t.frames.push_back(f);
  state.threads.push_back(t);

  vm::BugInfo bug;
  bug.kind = vm::BugInfo::Kind::kDeadlock;
  // One thread cannot fill two wildcard roles.
  EXPECT_FALSE(core::GoalMatches(goal, state, bug));
  // A second thread at the same site can.
  t.id = 6;
  state.threads.push_back(t);
  EXPECT_TRUE(core::GoalMatches(goal, state, bug));
}

TEST(WarningValidationTest, ConfirmsRealInversionRejectsImpossible) {
  // Same structure as examples/static_analysis_triage.cpp, as a regression
  // test: one real AB-BA between two threads, one startup-only inversion.
  auto module = workloads::ParseWorkload(R"(
global $a = zero 8
global $b = zero 8
func @fwd(%x: ptr) : void {
entry:
  call @mutex_lock($a)
  call @mutex_lock($b)
  call @mutex_unlock($b)
  call @mutex_unlock($a)
  ret
}
func @rev(%x: ptr) : void {
entry:
  call @mutex_lock($b)
  call @mutex_lock($a)
  call @mutex_unlock($a)
  call @mutex_unlock($b)
  ret
}
func @startup_rev() : void {
entry:
  call @mutex_lock($b)
  call @mutex_lock($a)
  call @mutex_unlock($a)
  call @mutex_unlock($b)
  ret
}
func @main() : i32 {
entry:
  call @startup_rev()
  %t1 = call @thread_create(@fwd, null)
  %t2 = call @thread_create(@rev, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  core::SynthesisOptions options;
  options.time_cap_seconds = 15.0;
  auto validated = core::ValidateLockOrderWarnings(*module, options);
  ASSERT_GE(validated.size(), 2u);
  int confirmed = 0;
  for (const auto& v : validated) {
    confirmed += v.confirmed ? 1 : 0;
  }
  // The fwd/rev inversion is real; the startup one must not be confirmed.
  EXPECT_GE(confirmed, 1);
  EXPECT_LT(confirmed, static_cast<int>(validated.size()));
}

// A search stopped by its budget decides nothing: a real AB-BA deadlock
// whose search cannot reach it within the instruction budget is reported
// as kBudget, never as exhausted (which esdcheck reads as a false
// positive).
TEST(WarningValidationTest, BudgetStopIsNotExhaustion) {
  auto module = workloads::ParseWorkload(R"(
global $a = zero 8
global $b = zero 8
func @fwd(%x: ptr) : void {
entry:
  call @mutex_lock($a)
  call @mutex_lock($b)
  call @mutex_unlock($b)
  call @mutex_unlock($a)
  ret
}
func @rev(%x: ptr) : void {
entry:
  call @mutex_lock($b)
  call @mutex_lock($a)
  call @mutex_unlock($a)
  call @mutex_unlock($b)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@fwd, null)
  %t2 = call @thread_create(@rev, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  core::SynthesisOptions options;
  options.time_cap_seconds = 15.0;
  auto validated = core::ValidateLockOrderWarnings(*module, options);
  ASSERT_EQ(validated.size(), 1u);
  ASSERT_TRUE(validated[0].confirmed) << validated[0].synthesis.failure_reason;
  EXPECT_EQ(validated[0].synthesis.stop, core::SynthesisResult::Stop::kGoal);

  options.max_instructions = 3;
  validated = core::ValidateLockOrderWarnings(*module, options);
  ASSERT_EQ(validated.size(), 1u);
  EXPECT_FALSE(validated[0].confirmed);
  EXPECT_EQ(validated[0].synthesis.stop, core::SynthesisResult::Stop::kBudget)
      << validated[0].synthesis.failure_reason;
}

TEST(WarningValidationTest, ConfirmedWarningReplays) {
  workloads::Workload w = workloads::MakeWorkload("hawknl");
  core::SynthesisOptions options;
  options.time_cap_seconds = 30.0;
  auto validated = core::ValidateLockOrderWarnings(*w.module, options);
  bool any_confirmed_and_replayed = false;
  for (const auto& v : validated) {
    if (v.confirmed) {
      replay::ReplayResult r =
          replay::Replay(*w.module, v.synthesis.file, replay::ReplayMode::kStrict);
      any_confirmed_and_replayed = r.bug_reproduced;
    }
  }
  EXPECT_TRUE(any_confirmed_and_replayed);
}

}  // namespace
}  // namespace esd
