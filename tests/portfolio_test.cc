// Tests for the search driver (src/core/portfolio.h): jobs == 1 must keep
// its recorded search, counts and execution file, jobs > 1 must synthesize
// valid, replayable execution files for deadlock and race workloads under
// cancellation and shared budgets, and the shared budgets must stop one
// engine exactly where its own budgets do. The CooperativeFrontier suite
// pins the work-stealing termination protocol itself
// (src/vm/work_queue.h), including the steal-race window where every deque
// is empty while states are still in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/event_counters.h"
#include "src/core/goal.h"
#include "src/core/search_setup.h"
#include "src/core/synthesizer.h"
#include "src/replay/replayer.h"
#include "src/solver/solver.h"
#include "src/vm/engine.h"
#include "src/vm/fingerprint.h"
#include "src/vm/interpreter.h"
#include "src/vm/race_detector.h"
#include "src/vm/searcher.h"
#include "src/vm/work_queue.h"
#include "src/workloads/workloads.h"

namespace esd {
namespace {

using workloads::CaptureDump;
using workloads::MakeWorkload;
using workloads::Workload;

core::SynthesisResult SynthesizeWorkload(const Workload& w,
                                         core::SynthesisOptions options) {
  auto dump = CaptureDump(*w.module, w.trigger);
  EXPECT_TRUE(dump.has_value()) << w.name << ": trigger did not manifest the bug";
  if (!dump.has_value()) {
    return {};
  }
  core::Synthesizer synthesizer(w.module.get(), options);
  return synthesizer.Synthesize(*dump);
}

void ExpectReplayReproduces(const Workload& w, const core::SynthesisResult& result) {
  ASSERT_TRUE(result.success) << result.failure_reason;
  replay::ReplayResult strict =
      replay::Replay(*w.module, result.file, replay::ReplayMode::kStrict);
  EXPECT_TRUE(strict.completed) << w.name;
  EXPECT_TRUE(strict.bug_reproduced)
      << w.name << ": strict replay got '" << vm::BugKindName(strict.bug.kind)
      << "' (" << strict.bug.message << ") wanted " << result.file.bug_kind;
}

// --- jobs == 1 must keep its recorded search exactly ------------------------

TEST(Portfolio, SingleJobMatchesClassicEngine) {
  Workload w = MakeWorkload("listing1");
  core::SynthesisOptions options;
  options.jobs = 1;
  core::SynthesisResult single = SynthesizeWorkload(w, options);
  ASSERT_TRUE(single.success) << single.failure_reason;

  // listing1's jobs == 1 search, pinned. It is deterministic, so anything
  // parallel-only leaking into the single-worker set-up shows up here: a
  // changed step changes the states, instructions or solver queries, a
  // root forked from a pinned prototype changes the COW page copies, and
  // any of them changes the execution file.
  EXPECT_EQ(single.states_created, 22u);
  EXPECT_EQ(single.instructions, 146u);
  EXPECT_EQ(single.solver.queries, 7u);
  EXPECT_EQ(single.counters.pages_copied, 8u);
  EXPECT_EQ(replay::Fingerprint(single.file), "bfb254b005f5cd40");
  EXPECT_TRUE(single.workers.empty());
  EXPECT_EQ(single.winning_worker, -1);
}

// --- jobs > 1 on the deadlock workload --------------------------------------

TEST(Portfolio, ParallelSynthesizesDeadlock) {
  Workload w = MakeWorkload("listing1");
  core::SynthesisOptions options;
  options.jobs = 4;
  core::SynthesisResult result = SynthesizeWorkload(w, options);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.bug.kind, vm::BugInfo::Kind::kDeadlock);
  ExpectReplayReproduces(w, result);

  // Worker accounting: one report per worker, exactly one winner, and the
  // merged counters are the sums of the per-worker ones.
  ASSERT_EQ(result.workers.size(), 4u);
  ASSERT_GE(result.winning_worker, 0);
  ASSERT_LT(result.winning_worker, 4);
  int winners = 0;
  uint64_t instructions = 0;
  for (const core::WorkerReport& wr : result.workers) {
    winners += wr.winner ? 1 : 0;
    instructions += wr.instructions;
    EXPECT_FALSE(wr.strategy.empty());
    EXPECT_FALSE(wr.status.empty());
  }
  EXPECT_EQ(winners, 1);
  EXPECT_TRUE(result.workers[result.winning_worker].winner);
  EXPECT_EQ(result.workers[result.winning_worker].status, "goal");
  EXPECT_EQ(result.instructions, instructions);
}

TEST(Portfolio, ParallelIsSeedRobust) {
  // A portfolio with decorrelated seeds should succeed for several base
  // seeds (each worker explores differently; any one finishing suffices).
  for (uint64_t seed : {7u, 1234u}) {
    Workload w = MakeWorkload("listing1");
    core::SynthesisOptions options;
    options.jobs = 3;
    options.seed = seed;
    core::SynthesisResult result = SynthesizeWorkload(w, options);
    EXPECT_TRUE(result.success) << "seed " << seed << ": " << result.failure_reason;
  }
}

// --- jobs > 1 on the race workload -------------------------------------------

TEST(Portfolio, ParallelSynthesizesRace) {
  // The §4.2 lost-update race: the report is the assert in main, not the
  // racy access itself.
  auto module = workloads::RacyCounterModule();
  report::CoreDump dump = workloads::AssertSiteDump(*module);

  core::SynthesisOptions options;
  options.jobs = 3;
  core::Synthesizer synthesizer(module.get(), options);
  core::SynthesisResult result = synthesizer.Synthesize(dump);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.bug.kind, vm::BugInfo::Kind::kAssertFail);

  replay::ReplayResult strict =
      replay::Replay(*module, result.file, replay::ReplayMode::kStrict);
  EXPECT_TRUE(strict.completed);
  EXPECT_TRUE(strict.bug_reproduced)
      << "replay got '" << vm::BugKindName(strict.bug.kind) << "'";
}

// --- Shared budgets and cancellation -----------------------------------------

TEST(Portfolio, SharedInstructionBudgetStopsAllWorkers) {
  Workload w = MakeWorkload("sqlite");
  core::SynthesisOptions options;
  options.jobs = 3;
  options.max_instructions = 60;  // Far too small to reach the goal.
  core::SynthesisResult result = SynthesizeWorkload(w, options);
  ASSERT_FALSE(result.success);
  EXPECT_NE(result.failure_reason.find("budget"), std::string::npos)
      << result.failure_reason;
  // The shared counter bounds the portfolio-wide total: each worker checks
  // it every flush period (budget/8 = 7 here), so after the total crosses
  // 60 each of the 3 workers can run at most one more period.
  EXPECT_LE(result.instructions, 59u + 3 * 7u);
  for (const core::WorkerReport& wr : result.workers) {
    EXPECT_FALSE(wr.winner);
  }
}

// One engine under the schedule strategy of `w`'s goal, breadth-first, with
// `max_states` live states and a small instruction budget. With `shared`,
// the run-wide counters are wired with the same budgets, as the driver
// wires them for every worker.
vm::Engine::Result RunOneEngine(const Workload& w, const report::CoreDump& dump,
                                size_t max_states, bool shared) {
  core::Goal goal = core::ExtractGoal(*w.module, dump);
  solver::ConstraintSolver solver;
  vm::RaceDetector races;
  bool want_races = false;
  std::unique_ptr<vm::SchedulePolicy> policy =
      core::MakeSchedulePolicy(goal, false, &races, &want_races, true);
  vm::Interpreter::Options iopts;
  iopts.policy = policy.get();
  iopts.race_detector = want_races ? &races : nullptr;
  vm::Interpreter interpreter(w.module.get(), &solver, iopts);
  vm::BfsSearcher searcher;
  vm::FingerprintTable visited;
  vm::Engine::Options eopts;
  // Small enough that the shared counters are flushed and checked every 64
  // instructions, so a shared check that stops early has chances to fire.
  eopts.max_instructions = 512;
  eopts.max_states = max_states;
  eopts.visited = &visited;
  std::atomic<uint64_t> shared_instructions{0};
  std::atomic<uint64_t> shared_states{0};
  if (shared) {
    eopts.shared_instructions = &shared_instructions;
    eopts.shared_max_instructions = eopts.max_instructions;
    eopts.shared_states = &shared_states;
    eopts.shared_max_states = max_states;
  }
  vm::Engine engine(&interpreter, &searcher, eopts);
  engine.Start(interpreter.MakeInitialState(*w.module->FindFunction("main"),
                                            interpreter.AllocStateId()));
  return engine.Run([&goal](const vm::ExecutionState& state, const vm::BugInfo& bug) {
    return core::GoalMatches(goal, state, bug);
  });
}

TEST(Portfolio, SharedBudgetsStopOneEngineWhereItsOwnBudgetsDo) {
  // The driver wires the shared budgets at every `jobs`, so for one worker
  // they must be invisible: the same verdict, states and instructions as
  // the engine's own budgets alone, at every live-state budget.
  for (const char* name : {"listing1", "sqlite"}) {
    Workload w = MakeWorkload(name);
    auto dump = CaptureDump(*w.module, w.trigger);
    ASSERT_TRUE(dump.has_value()) << name;
    for (size_t max_states = 1; max_states <= 64; ++max_states) {
      vm::Engine::Result local = RunOneEngine(w, *dump, max_states, false);
      vm::Engine::Result shared = RunOneEngine(w, *dump, max_states, true);
      EXPECT_EQ(shared.status, local.status) << name << " max_states " << max_states;
      EXPECT_EQ(shared.states_created, local.states_created)
          << name << " max_states " << max_states;
      EXPECT_EQ(shared.instructions, local.instructions)
          << name << " max_states " << max_states;
    }
  }
}

TEST(Portfolio, LosersReportCancelledOrFinished) {
  Workload w = MakeWorkload("listing1");
  core::SynthesisOptions options;
  options.jobs = 4;
  core::SynthesisResult result = SynthesizeWorkload(w, options);
  ASSERT_TRUE(result.success) << result.failure_reason;
  for (int i = 0; i < 4; ++i) {
    const core::WorkerReport& wr = result.workers[i];
    if (i == result.winning_worker) {
      EXPECT_EQ(wr.status, "goal");
    } else {
      // A loser was either cancelled mid-search or finished on its own
      // (goal found but lost the claim race, exhausted, or over budget).
      EXPECT_TRUE(wr.status == "cancelled" || wr.status == "goal(lost)" ||
                  wr.status == "exhausted" || wr.status == "limit")
          << wr.status;
    }
  }
}

// --- The shared frontier -----------------------------------------------------

TEST(Portfolio, CooperativeSynthesizesAndHandsOff) {
  Workload w = MakeWorkload("listing1");
  core::SynthesisOptions options;
  options.jobs = 4;
  core::SynthesisResult result = SynthesizeWorkload(w, options);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.bug.kind, vm::BugInfo::Kind::kDeadlock);
  ExpectReplayReproduces(w, result);

  // Every worker runs the jobs == 1 strategy; coverage diversity comes from
  // frontier partitioning, so ownership routing must actually be routing.
  for (const core::WorkerReport& wr : result.workers) {
    EXPECT_EQ(wr.strategy.rfind("coop-", 0), 0u) << wr.strategy;
  }
  EXPECT_GT(result.counters.states_handed_off, 0u)
      << "fingerprint-mod-N routing never moved a fork between workers";
}

TEST(Portfolio, CooperativeSynthesizesRace) {
  auto module = workloads::RacyCounterModule();
  report::CoreDump dump = workloads::AssertSiteDump(*module);
  core::SynthesisOptions options;
  options.jobs = 4;
  core::Synthesizer synthesizer(module.get(), options);
  core::SynthesisResult result = synthesizer.Synthesize(dump);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.bug.kind, vm::BugInfo::Kind::kAssertFail);
  replay::ReplayResult strict =
      replay::Replay(*module, result.file, replay::ReplayMode::kStrict);
  EXPECT_TRUE(strict.completed);
  EXPECT_TRUE(strict.bug_reproduced)
      << "replay got '" << vm::BugKindName(strict.bug.kind) << "'";
}

// --- The work-stealing termination protocol ----------------------------------

// A state to move through the frontier; the protocol never dereferences it,
// but use real forked states so destruction order mirrors production.
struct FrontierFixture {
  FrontierFixture()
      : workload(MakeWorkload("listing1")),
        interp(workload.module.get(), &solver, {}) {
    auto main_fn = workload.module->FindFunction("main");
    EXPECT_TRUE(main_fn.has_value());
    root = interp.MakeInitialState(*main_fn, interp.AllocStateId());
  }
  vm::StatePtr Fork() { return root->Fork(interp.AllocStateId()); }

  Workload workload;
  solver::ConstraintSolver solver;
  vm::Interpreter interp;
  vm::StatePtr root;
};

using AcquireResult = vm::SharedFrontier::AcquireResult;

TEST(CooperativeFrontier, EmptyDequesWithWorkInFlightMustNotDrain) {
  FrontierFixture fx;
  vm::SharedFrontier frontier(2);
  std::vector<vm::StatePtr> got;

  // The steal-race window: worker 0 holds its root in flight (registered,
  // mid-step), every deque is empty. An idle peer must spin — the in-flight
  // state can still fork children into the peer's partition — not report
  // the frontier drained and exit early.
  frontier.NoteLocalKeep();
  EXPECT_EQ(frontier.Acquire(1, &got), AcquireResult::kRetry);
  EXPECT_TRUE(got.empty());

  // Worker 0's step forks a child homed at worker 1, then finishes.
  frontier.PushRemote(1, fx.Fork());
  frontier.FinishOne();
  EXPECT_EQ(frontier.Acquire(1, &got), AcquireResult::kGot);
  ASSERT_EQ(got.size(), 1u);

  // Now worker 1 holds the only in-flight state: worker 0 must spin.
  EXPECT_EQ(frontier.Acquire(0, &got), AcquireResult::kRetry);

  // Worker 1 finishes it without forking: now — and only now — both see
  // the frontier exhausted.
  frontier.FinishOne();
  got.clear();
  EXPECT_EQ(frontier.Acquire(0, &got), AcquireResult::kDrained);
  EXPECT_EQ(frontier.Acquire(1, &got), AcquireResult::kDrained);
  EXPECT_EQ(frontier.InFlight(), 0u);
}

TEST(CooperativeFrontier, StealTakesOldestOwnerDrainsRest) {
  FrontierFixture fx;
  vm::SharedFrontier frontier(2);
  vm::StatePtr a = fx.Fork();
  vm::StatePtr b = fx.Fork();
  const vm::ExecutionState* a_raw = a.get();
  const vm::ExecutionState* b_raw = b.get();
  frontier.PushRemote(0, std::move(a));
  frontier.PushRemote(0, std::move(b));

  // A thief takes exactly one state, FIFO — the oldest entry heads the
  // largest unexplored subtree.
  std::vector<vm::StatePtr> stolen;
  EXPECT_EQ(frontier.Acquire(1, &stolen), AcquireResult::kGot);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].get(), a_raw);

  // The owner absorbs whatever remains wholesale.
  std::vector<vm::StatePtr> own;
  EXPECT_TRUE(frontier.TryDrainOwn(0, &own));
  ASSERT_EQ(own.size(), 1u);
  EXPECT_EQ(own[0].get(), b_raw);
  EXPECT_FALSE(frontier.TryDrainOwn(0, &own));
}

// --- The steal-failure counter (regression) ----------------------------------

TEST(CooperativeFrontier, FailedAcquireCountsExactlyOneStealFailure) {
  FrontierFixture fx;
  vm::SharedFrontier frontier(3);
  std::vector<vm::StatePtr> got;
  frontier.NoteLocalKeep();  // Work in flight: failed Acquires must retry.

  // Every peer deque is empty, so each failed Acquire scans both peers and
  // must record exactly one failed steal attempt — one per Acquire call,
  // not one per empty peer probed.
  for (int i = 0; i < 5; ++i) {
    EventCounters local;
    ScopedEventCounters scope(&local);
    EXPECT_EQ(frontier.Acquire(0, &got), AcquireResult::kRetry);
    EXPECT_EQ(local.steal_failures, 1u) << "attempt " << i;
    EXPECT_EQ(local.steals, 0u);
  }
  frontier.FinishOne();
}

TEST(CooperativeFrontier, RacedDrainNeverDoubleCountsStealFailures) {
  // The near-miss window: the thief's size probe sees the victim's entry,
  // but by the time it holds the lock the owner has drained its own deque.
  // That near-miss must not be counted on top of the one post-scan failure
  // (two failures for one failed Acquire), nor alongside a steal that
  // succeeds later in the same scan. Hammer the window and pin the
  // per-call counts.
  FrontierFixture fx;
  vm::SharedFrontier frontier(2);
  frontier.NoteLocalKeep();  // Held by the test: Acquire never drains.

  std::atomic<bool> stop{false};
  std::thread owner([&] {
    std::vector<vm::StatePtr> own;
    while (!stop.load(std::memory_order_relaxed)) {
      frontier.PushRemote(1, fx.Fork());
      if (frontier.TryDrainOwn(1, &own)) {
        for (vm::StatePtr& s : own) {
          s.reset();
          frontier.FinishOne();
        }
        own.clear();
      }
    }
  });

  std::vector<vm::StatePtr> got;
  for (int i = 0; i < 2000; ++i) {
    EventCounters local;
    ScopedEventCounters scope(&local);
    AcquireResult r = frontier.Acquire(0, &got);
    ASSERT_NE(r, AcquireResult::kAbort);
    ASSERT_NE(r, AcquireResult::kDrained);
    if (r == AcquireResult::kGot) {
      EXPECT_EQ(local.steals, 1u);
      EXPECT_EQ(local.steal_failures, 0u)
          << "a successful Acquire recorded a steal failure";
      for (vm::StatePtr& s : got) {
        s.reset();
        frontier.FinishOne();
      }
      got.clear();
    } else {
      EXPECT_EQ(local.steals, 0u);
      EXPECT_EQ(local.steal_failures, 1u)
          << "one failed Acquire must count exactly one steal failure";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  owner.join();

  // Balance the bookkeeping: drain whatever the owner left queued, then
  // release the test's in-flight hold.
  std::vector<vm::StatePtr> rest;
  if (frontier.TryDrainOwn(1, &rest)) {
    for (vm::StatePtr& s : rest) {
      s.reset();
      frontier.FinishOne();
    }
  }
  frontier.FinishOne();
  EXPECT_EQ(frontier.InFlight(), 0u);
}

TEST(CooperativeFrontier, NoteLimitAbortsIdlePeersDespiteInFlightWork) {
  FrontierFixture fx;
  vm::SharedFrontier frontier(2);
  std::vector<vm::StatePtr> got;
  frontier.NoteLocalKeep();  // Worker 0 holds a state in flight...
  frontier.NoteLimit();      // ...but hits its budget and exits with it.
  // Without the limit flag the peer would spin on the orphaned in-flight
  // count until the time cap.
  EXPECT_EQ(frontier.Acquire(1, &got), AcquireResult::kAbort);
}

TEST(CooperativeFrontier, ConcurrentProducerConsumerTerminatesExactly) {
  FrontierFixture fx;
  constexpr int kStates = 64;
  vm::SharedFrontier frontier(2);

  // Worker 0 (producer) registers its root before worker 1 starts — the
  // portfolio guarantees this by starting a root per worker. The latch
  // forces worker 1 to begin acquiring inside the window where worker 0
  // still holds everything in flight.
  frontier.NoteLocalKeep();
  std::latch window(1);

  std::thread consumer([&] {
    window.wait();
    int consumed = 0;
    std::vector<vm::StatePtr> batch;
    for (;;) {
      AcquireResult r = frontier.Acquire(1, &batch);
      if (r == AcquireResult::kDrained) {
        break;
      }
      ASSERT_NE(r, AcquireResult::kAbort);
      if (r == AcquireResult::kRetry) {
        std::this_thread::yield();
        continue;
      }
      for (vm::StatePtr& state : batch) {
        state.reset();  // "Step to completion": destroy remotely.
        frontier.FinishOne();
        ++consumed;
      }
      batch.clear();
    }
    EXPECT_EQ(consumed, kStates) << "early exit lost in-flight states";
  });

  window.count_down();
  for (int i = 0; i < kStates; ++i) {
    frontier.PushRemote(1, fx.Fork());
  }
  frontier.FinishOne();  // Worker 0's root completes; nothing kept locally.
  consumer.join();
  EXPECT_EQ(frontier.InFlight(), 0u);
}

}  // namespace
}  // namespace esd
