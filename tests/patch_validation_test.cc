// §5.2: "After fixing the bug, ESD can be re-run, to check whether there
// still exists a path to the bug. ... If ESD can no longer synthesize an
// execution that triggers the bug, then the patch can be considered
// successful." — the patch-validation workflow, exercised on Listing 1.
#include <gtest/gtest.h>

#include "src/core/synthesizer.h"
#include "src/workloads/workloads.h"

namespace esd {
namespace {

// Listing 1 with the canonical fix: the critical section no longer releases
// and reacquires M1, so the lock order is globally consistent.
constexpr char kPatchedListing1[] = R"(
global $mode = zero 4
global $idx = zero 4
global $m1 = zero 8
global $m2 = zero 8
global $env_mode = str "mode"

func @critical_section() : void {
entry:
  call @mutex_lock($m1)
  call @mutex_lock($m2)
  %mv = load i32, $mode
  %is_y = icmp eq %mv, i32 1
  %iv = load i32, $idx
  %is_one = icmp eq %iv, i32 1
  %both = and %is_y, %is_one
  condbr %both, special, done
special:
  ; the patched path keeps holding M1 (no unlock/relock window)
  %w = load i32, $idx
  %w2 = add %w, i32 1
  store %w2, $idx
  br done
done:
  call @mutex_unlock($m2)
  call @mutex_unlock($m1)
  ret
}

func @worker(%arg: ptr) : void {
entry:
  call @critical_section()
  ret
}

func @main() : i32 {
entry:
  %c = call @getchar()
  %is_m = icmp eq %c, i32 109
  condbr %is_m, inc, checkenv
inc:
  %old = load i32, $idx
  %new = add %old, i32 1
  store %new, $idx
  br checkenv
checkenv:
  %env = call @getenv($env_mode)
  %e0 = load i8, %env
  %is_y = icmp eq %e0, i8 89
  condbr %is_y, mod_y, mod_z
mod_y:
  store i32 1, $mode
  br spawn
mod_z:
  store i32 2, $mode
  br spawn
spawn:
  %t1 = call @thread_create(@worker, null)
  %t2 = call @thread_create(@worker, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)";

TEST(PatchValidationTest, BuggyVersionSynthesizesPatchedDoesNot) {
  // The bug report came from the buggy build.
  workloads::Workload buggy = workloads::MakeWorkload("listing1");
  auto dump = workloads::CaptureDump(*buggy.module, buggy.trigger);
  ASSERT_TRUE(dump.has_value());

  // Against the buggy build ESD reproduces the deadlock. With redundant
  // interleavings pruned the synthesis takes milliseconds; the caps here
  // (and below) only bound a regressed worst case without loosening what
  // is asserted.
  core::SynthesisOptions options;
  options.time_cap_seconds = 10.0;
  core::Synthesizer on_buggy(buggy.module.get(), options);
  EXPECT_TRUE(on_buggy.Synthesize(*dump).success);

  // Against the patched build the same goal must be unreachable. The goal
  // sites are looked up by (function, block-label) so the patched module's
  // corresponding locations are used, as a developer would after a fix that
  // preserves the function structure.
  auto patched = workloads::ParseWorkload(kPatchedListing1);
  core::Goal goal;
  goal.kind = vm::BugInfo::Kind::kDeadlock;
  uint32_t cs = *patched->FindFunction("critical_section");
  // In the patched build there is no swap block; the nearest surviving lock
  // sites are the entry acquisitions. The circular wait must be impossible
  // no matter which lock sites we point at.
  core::ThreadGoal t1;
  t1.tid = core::kAnyTid;
  t1.target = ir::InstRef{cs, 0, 0};  // lock(M1)
  core::ThreadGoal t2;
  t2.tid = core::kAnyTid;
  t2.target = ir::InstRef{cs, 0, 1};  // lock(M2)
  goal.threads = {t1, t2};

  // State dedup closes the patched build's interleaving space: the search
  // *exhausts* it (strongest possible patch-validation verdict) instead of
  // running into the time cap.
  core::SynthesisOptions patched_options;
  patched_options.time_cap_seconds = 5.0;
  core::Synthesizer on_patched(patched.get(), patched_options);
  core::SynthesisResult result = on_patched.SynthesizeGoal(goal);
  EXPECT_FALSE(result.success)
      << "patched build still deadlocks: " << result.bug.message;
  EXPECT_EQ(result.stop, core::SynthesisResult::Stop::kExhausted)
      << "expected exhaustive coverage, got: " << result.failure_reason;
}

TEST(PatchValidationTest, PatchedProgramRunsCleanUnderStress) {
  auto patched = workloads::ParseWorkload(kPatchedListing1);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    vm::BugInfo bug = workloads::StressRun(*patched, seed);
    EXPECT_FALSE(bug.IsBug()) << "seed " << seed << ": " << bug.message;
  }
}

}  // namespace
}  // namespace esd
