// Tests for the redundant-interleaving pruning layer: the execution-state
// fingerprint (state dedup), sleep-set recording/wakeup, the engine's
// visited-table integration (including keys that carry the flagged race
// sites), and the determinism guarantee that `--jobs 1` synthesis is
// bit-reproducible run to run.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/goal.h"
#include "src/core/race_strategy.h"
#include "src/core/synthesizer.h"
#include "src/fuzz/generator.h"
#include "src/replay/replayer.h"
#include "src/solver/solver.h"
#include "src/vm/engine.h"
#include "src/vm/fingerprint.h"
#include "src/vm/interpreter.h"
#include "src/vm/race_detector.h"
#include "src/vm/searcher.h"
#include "src/vm/state.h"
#include "src/workloads/trigger.h"
#include "src/workloads/workloads.h"

namespace esd {
namespace {

// ---- Fingerprint unit tests -------------------------------------------------

// Two threads touch disjoint data: executing them in either order must
// reconverge to the same fingerprint (that collision is what lets the
// engine drop one of the two interleavings).
TEST(StateFingerprint, CommutingInterleavingsReconverge) {
  auto module = workloads::ParseWorkload(R"(
global $x = zero 4
global $y = zero 4
global $m1 = zero 8
global $m2 = zero 8

func @t1(%a: ptr) : void {
entry:
  call @mutex_lock($m1)
  store i32 7, $x
  call @mutex_unlock($m1)
  ret
}

func @t2(%a: ptr) : void {
entry:
  call @mutex_lock($m2)
  store i32 9, $y
  call @mutex_unlock($m2)
  ret
}

func @main() : i32 {
entry:
  %a = call @thread_create(@t1, null)
  %b = call @thread_create(@t2, null)
  call @yield()
  call @yield()
  ret i32 0
}
)");
  solver::ConstraintSolver solver;
  vm::Interpreter interp(module.get(), &solver, {});
  uint32_t main_fn = *module->FindFunction("main");
  vm::StatePtr a = interp.MakeInitialState(main_fn, 1);
  // Execute main's two thread_create calls; both threads now exist.
  interp.Step(*a);
  interp.Step(*a);
  vm::StatePtr b = a->Fork(2);

  // a: t1's lock+store, then t2's lock+store. b: the reverse order.
  auto run = [&](vm::ExecutionState& s, uint32_t tid, int steps) {
    s.current_tid = tid;
    for (int i = 0; i < steps; ++i) {
      interp.Step(s);
    }
  };
  run(*a, 1, 2);
  run(*a, 2, 2);
  run(*b, 2, 2);
  run(*b, 1, 2);
  a->current_tid = 0;
  b->current_tid = 0;
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint())
      << "independent operations must commute to the same fingerprint";

  // Advancing only one of them (t1's unlock) must break the collision...
  run(*a, 1, 1);
  a->current_tid = 0;
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
  // ...and performing the same operation in the other restores it.
  run(*b, 1, 1);
  b->current_tid = 0;
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
}

TEST(StateFingerprint, MemoryContentDistinguishes) {
  vm::ExecutionState a;
  vm::ExecutionState b;
  uint32_t ia = a.mem.Allocate(4, vm::ObjectKind::kGlobal, "g");
  uint32_t ib = b.mem.Allocate(4, vm::ObjectKind::kGlobal, "g");
  ASSERT_EQ(a.Fingerprint(), b.Fingerprint());

  a.mem.WriteByte(a.mem.FindWritable(ia), 0, solver::MakeConst(8, 5));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());

  b.mem.WriteByte(b.mem.FindWritable(ib), 0, solver::MakeConst(8, 6));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint()) << "different bytes, same site";

  b.mem.WriteByte(b.mem.FindWritable(ib), 0, solver::MakeConst(8, 5));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint()) << "equal content must collide";

  // Overwriting back to zero restores the untouched-object hash.
  a.mem.WriteByte(a.mem.FindWritable(ia), 0, solver::MakeConst(8, 0));
  b.mem.WriteByte(b.mem.FindWritable(ib), 0, solver::MakeConst(8, 0));
  vm::ExecutionState fresh;
  fresh.mem.Allocate(4, vm::ObjectKind::kGlobal, "g");
  EXPECT_EQ(a.Fingerprint(), fresh.Fingerprint());
  EXPECT_EQ(b.Fingerprint(), fresh.Fingerprint());
}

TEST(StateFingerprint, SyncStateDistinguishes) {
  vm::ExecutionState a;
  vm::ExecutionState b;
  ASSERT_EQ(a.Fingerprint(), b.Fingerprint());
  // A locked mutex changes the fingerprint; an unlocked entry does not
  // (so "never locked" and "locked then released" states can merge).
  a.mutable_mutexes()[64] = vm::MutexState{true, 1, ir::InstRef{0, 0, 0}};
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b.mutable_mutexes()[64] = vm::MutexState{false, ir::kInvalidIndex, {}};
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  a.mutable_mutexes()[64].locked = false;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // Condvar wait queues count too.
  a.mutable_cond_waiters()[128] = {1, 2};
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(StateFingerprint, ConstraintsDistinguish) {
  // Identical control/memory but different path conditions must not merge:
  // one state may still reach the bug for some input, the other not.
  vm::ExecutionState a;
  vm::ExecutionState b;
  solver::ExprRef v = solver::MakeVar(1, 32, "x#1");
  a.AddConstraint(solver::MakeEq(v, solver::MakeConst(32, 3)));
  b.AddConstraint(solver::MakeNe(v, solver::MakeConst(32, 3)));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  // The same constraint appended to both restores nothing — the digests
  // already diverged (order-sensitive rolling fold).
  solver::ExprRef extra = solver::MakeUle(v, solver::MakeConst(32, 9));
  a.AddConstraint(extra);
  b.AddConstraint(extra);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(StateFingerprint, ConstraintsAreStoredAsBuilt) {
  // AddConstraint keeps the interpreter's own DAG: x + 5 == 9 is stored as
  // that very node, not as an equivalent x == 4.
  vm::ExecutionState a;
  solver::ExprRef x = solver::MakeVar(1, 32, "x#1");
  solver::ExprRef built = solver::MakeEq(solver::MakeAdd(x, solver::MakeConst(32, 5)),
                                         solver::MakeConst(32, 9));
  a.AddConstraint(built);
  ASSERT_EQ(a.constraints.size(), 1u);
  EXPECT_EQ(a.constraints[0].get(), built.get());
  // So the digest sees the built form too: the two spellings do not merge
  // (a missed merge costs states, never soundness).
  vm::ExecutionState b;
  b.AddConstraint(solver::MakeEq(x, solver::MakeConst(32, 4)));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  // A constant-true constraint reaches neither the set nor the digest.
  uint64_t digest = a.constraints_digest;
  a.AddConstraint(solver::MakeTrue());
  EXPECT_EQ(a.constraints.size(), 1u);
  EXPECT_EQ(a.constraints_digest, digest);
}

// ---- Fingerprint stability --------------------------------------------------

// The fingerprint must depend on the memory *contents*, not on the order
// the stores that produced them executed in (the COW content hash XORs old
// contributions out and new ones in, so intermediate overwrites cancel).
TEST(StateFingerprint, WriteOrderIndependent) {
  vm::ExecutionState a;
  vm::ExecutionState b;
  uint32_t ia = a.mem.Allocate(40, vm::ObjectKind::kGlobal, "g");
  uint32_t ib = b.mem.Allocate(40, vm::ObjectKind::kGlobal, "g");

  // a: ascending offsets; b: descending, with a transient wrong value at
  // offset 20 that is later overwritten with the final one.
  for (uint32_t off = 0; off < 40; off += 4) {
    a.mem.WriteByte(a.mem.FindWritable(ia), off,
                    solver::MakeConst(8, 100 + off));
  }
  b.mem.WriteByte(b.mem.FindWritable(ib), 20, solver::MakeConst(8, 250));
  for (uint32_t n = 0; n < 40; n += 4) {
    uint32_t off = 36 - n;
    b.mem.WriteByte(b.mem.FindWritable(ib), off,
                    solver::MakeConst(8, 100 + off));
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint())
      << "same final contents via different store orders must collide";
}

// Forking must neither disturb the parent's fingerprint (stability under
// COW sharing) nor tie the child to it: a child write diverges, and the
// matching parent write reconverges.
TEST(StateFingerprint, ForkedChildWritesLeaveParentIntact) {
  vm::ExecutionState parent;
  uint32_t id = parent.mem.Allocate(8, vm::ObjectKind::kHeap, "h");
  parent.mem.WriteByte(parent.mem.FindWritable(id), 0,
                       solver::MakeConst(8, 11));
  const uint64_t before = parent.Fingerprint();

  vm::StatePtr child = parent.Fork(2);
  EXPECT_EQ(child->Fingerprint(), before)
      << "a fork shares all content, so it starts at the parent's print";

  child->mem.WriteByte(child->mem.FindWritable(id), 4,
                       solver::MakeConst(8, 77));
  EXPECT_NE(child->Fingerprint(), before);
  EXPECT_EQ(parent.Fingerprint(), before)
      << "child writes must not leak into the parent through shared pages";

  parent.mem.WriteByte(parent.mem.FindWritable(id), 4,
                       solver::MakeConst(8, 77));
  EXPECT_EQ(parent.Fingerprint(), child->Fingerprint());
}

// Collision freedom over the fuzz corpus: 6 bug kinds x 35 seeds = 210
// generated programs, each executed concretely under its planted trigger
// while the fingerprint stream is folded into one 64-bit digest per
// program. Distinct programs may legitimately share *individual*
// fingerprints (e.g. every initial state hashes the same pc/zero-memory
// shape), but the folded trajectories must be pairwise distinct — if two
// different programs' whole runs collided, the dedup table would be
// conflating genuinely different explorations. Also pins determinism: the
// fold is a pure function of (kind, seed).
TEST(StateFingerprint, FuzzCorpusTrajectoryFoldsAreCollisionFree) {
  constexpr uint64_t kSeedsPerKind = 35;
  constexpr uint64_t kChunk = 40;  // Instructions between fingerprint samples.

  auto fold_trajectory = [](fuzz::BugKind kind, uint64_t seed) {
    fuzz::GeneratorParams params;
    params.kind = kind;
    params.seed = seed;
    fuzz::GeneratedProgram prog = fuzz::Generate(params);
    solver::ConstraintSolver solver;
    workloads::PrefixInputProvider inputs(prog.trigger.inputs);
    workloads::ScriptedSyncPolicy policy(prog.trigger.schedule);
    vm::Interpreter::Options options;
    options.input_provider = &inputs;
    options.policy = &policy;
    vm::Interpreter interp(prog.module.get(), &solver, options);
    auto main_fn = prog.module->FindFunction("main");
    if (!main_fn.has_value()) {
      ADD_FAILURE() << "generated program without main";
      return uint64_t{0};
    }
    vm::StatePtr state = interp.MakeInitialState(*main_fn, 0);
    uint64_t fold = vm::FingerprintMix64(state->Fingerprint());
    for (int chunk = 0; chunk < 500; ++chunk) {
      vm::SingleRunResult r = vm::RunToCompletion(interp, *state, kChunk);
      fold = vm::FingerprintMix64(fold ^ state->Fingerprint());
      if (r.completed || r.instructions < kChunk) {
        break;
      }
    }
    return fold;
  };

  std::map<uint64_t, std::string> seen;
  for (uint32_t k = 0; k < fuzz::kNumBugKinds; ++k) {
    fuzz::BugKind kind = static_cast<fuzz::BugKind>(k);
    for (uint64_t seed = 1; seed <= kSeedsPerKind; ++seed) {
      uint64_t fold = fold_trajectory(kind, seed);
      std::string label =
          std::string(fuzz::BugKindName(kind)) + "/" + std::to_string(seed);
      auto [it, inserted] = seen.emplace(fold, label);
      EXPECT_TRUE(inserted) << "trajectory-fold collision between " << label
                            << " and " << it->second;
    }
  }
  ASSERT_EQ(seen.size(), fuzz::kNumBugKinds * kSeedsPerKind);

  // Determinism spot check: re-running a program reproduces its fold.
  uint64_t again = fold_trajectory(fuzz::BugKind::kDeadlock, 1);
  EXPECT_TRUE(seen.count(again))
      << "re-running deadlock/1 produced a fold unseen in the first pass";
}

// ---- Sleep-set unit tests ---------------------------------------------------

vm::ExecutionState TwoThreadState() {
  vm::ExecutionState st;
  for (uint32_t id = 0; id < 2; ++id) {
    vm::Thread t;
    t.id = id;
    vm::StackFrame f;
    f.func = id;  // Distinct pcs per thread.
    t.frames.push_back(f);
    st.threads.push_back(std::move(t));
  }
  st.current_tid = 0;
  return st;
}

vm::SyncOp MakeOp(vm::SyncOp::Kind kind, uint64_t addr, ir::InstRef site) {
  vm::SyncOp op;
  op.kind = kind;
  op.addr = addr;
  op.site = site;
  return op;
}

TEST(SleepSet, BlocksUntilDependentMutexOpWakes) {
  vm::ExecutionState st = TwoThreadState();
  ir::InstRef t1_pc = st.threads[1].Pc();
  st.SleepSetInsert(1, MakeOp(vm::SyncOp::Kind::kMutexLock, 100, t1_pc));
  EXPECT_TRUE(st.SleepSetBlocks(1));
  EXPECT_FALSE(st.SleepSetBlocks(0));

  // An operation on a different mutex is independent: still asleep.
  st.SleepSetWake(MakeOp(vm::SyncOp::Kind::kMutexLock, 200, {}));
  EXPECT_TRUE(st.SleepSetBlocks(1));

  // Touching the same mutex is dependent: woken.
  st.SleepSetWake(MakeOp(vm::SyncOp::Kind::kMutexUnlock, 100, {}));
  EXPECT_FALSE(st.SleepSetBlocks(1));
}

TEST(SleepSet, RacyAccessesWakeOnConflictOnly) {
  vm::ExecutionState st = TwoThreadState();
  ir::InstRef t1_pc = st.threads[1].Pc();
  // Addresses are (object, offset) pairs; dependence is judged at object
  // granularity so multi-byte accesses overlapping at different offsets
  // still conflict.
  const uint64_t obj5 = vm::MakePointer(5, 0);
  const uint64_t obj6 = vm::MakePointer(6, 0);
  st.SleepSetInsert(1, MakeOp(vm::SyncOp::Kind::kRacyStore, obj5, t1_pc));
  // Writes to a different object are independent.
  st.SleepSetWakeAccess(obj6, /*is_write=*/true);
  EXPECT_TRUE(st.SleepSetBlocks(1));
  // A plain read elsewhere in the same object conflicts with the sleeping
  // store (it may overlap).
  st.SleepSetWakeAccess(vm::MakePointer(5, 2), /*is_write=*/false);
  EXPECT_FALSE(st.SleepSetBlocks(1));

  // A sleeping *load* is not woken by other loads (read-read commutes)...
  st.SleepSetInsert(1, MakeOp(vm::SyncOp::Kind::kRacyLoad, obj5, t1_pc));
  st.SleepSetWakeAccess(obj5, /*is_write=*/false);
  EXPECT_TRUE(st.SleepSetBlocks(1));
  // ...but is woken by a write to the same object.
  st.SleepSetWakeAccess(obj5, /*is_write=*/true);
  EXPECT_FALSE(st.SleepSetBlocks(1));

  // A racy operation whose pointer was symbolic at the preemption point
  // records address 0: independence cannot be shown, so anything wakes it.
  st.SleepSetInsert(1, MakeOp(vm::SyncOp::Kind::kRacyStore, 0, t1_pc));
  st.SleepSetWakeAccess(obj6, /*is_write=*/false);
  EXPECT_FALSE(st.SleepSetBlocks(1));
}

TEST(SleepSet, CondAndThreadOpsWakeEverything) {
  vm::ExecutionState st = TwoThreadState();
  ir::InstRef t1_pc = st.threads[1].Pc();
  st.SleepSetInsert(1, MakeOp(vm::SyncOp::Kind::kMutexLock, 100, t1_pc));
  st.SleepSetWake(MakeOp(vm::SyncOp::Kind::kCondSignal, 999, {}));
  EXPECT_FALSE(st.SleepSetBlocks(1)) << "condvar ops wake conservatively";

  st.SleepSetInsert(1, MakeOp(vm::SyncOp::Kind::kMutexLock, 100, t1_pc));
  st.SleepSetWake(MakeOp(vm::SyncOp::Kind::kThreadCreate, 0, {}));
  EXPECT_FALSE(st.SleepSetBlocks(1)) << "thread lifecycle wakes conservatively";
}

TEST(SleepSet, EntryGoesStaleWhenThreadMoves) {
  vm::ExecutionState st = TwoThreadState();
  ir::InstRef t1_pc = st.threads[1].Pc();
  st.SleepSetInsert(1, MakeOp(vm::SyncOp::Kind::kMutexLock, 100, t1_pc));
  ASSERT_TRUE(st.SleepSetBlocks(1));
  // The sleeping thread executed something on its own: the recorded parked
  // operation is no longer what it would run, so it must not block forks.
  ++st.threads[1].frames.back().inst;
  EXPECT_FALSE(st.SleepSetBlocks(1));
}

TEST(FingerprintTable, InsertIfAbsentIsIdempotent) {
  vm::FingerprintTable table;
  EXPECT_TRUE(table.InsertIfAbsent(42));
  EXPECT_FALSE(table.InsertIfAbsent(42));
  EXPECT_TRUE(table.InsertIfAbsent(43));
  EXPECT_EQ(table.Size(), 2u);
}

// Shards start small and double: filling a table from empty must keep
// every value exactly once through every growth, and Snapshot() must come
// out sorted and duplicate-free whatever the shard layout.
TEST(FingerprintTable, GrowsFromEmptyKeepingEveryValueOnce) {
  vm::FingerprintTable table;
  std::mt19937_64 rng(2024);
  std::set<uint64_t> reference;
  for (int i = 0; i < 100000; ++i) {
    // Every fifth value repeats an earlier one; 0 takes the side flag.
    uint64_t fp = (i % 5 == 4) ? *reference.begin() : rng();
    if (i == 1000) {
      fp = 0;
    }
    bool absent = reference.insert(fp).second;
    ASSERT_EQ(table.InsertIfAbsent(fp), absent) << "insert " << i;
  }
  EXPECT_EQ(table.Size(), reference.size());
  for (uint64_t fp : reference) {
    ASSERT_FALSE(table.InsertIfAbsent(fp)) << fp;
  }
  std::vector<uint64_t> snapshot = table.Snapshot();
  EXPECT_EQ(snapshot, std::vector<uint64_t>(reference.begin(), reference.end()));
}

// ---- Schedule trace ---------------------------------------------------------

// The trace shares full chunks between fork siblings and clones the tail
// chunk on the first append after a fork. Forking at every 7th of 100
// appends crosses chunk boundaries at many offsets; the original and each
// fork, both appending after the fork, must each read back exactly its own
// flat event list.
TEST(SchedTrace, ForkedLineagesMatchFlatReference) {
  auto event = [](uint64_t step) {
    vm::SchedEvent ev{};
    ev.kind = vm::SchedEvent::Kind::kSwitch;
    ev.tid = static_cast<uint32_t>(step % 3);
    ev.addr = step * 8;
    ev.step = step;
    return ev;
  };
  auto same = [](const vm::SchedTrace& trace,
                 const std::vector<vm::SchedEvent>& flat) {
    if (trace.size() != flat.size()) {
      return false;
    }
    size_t i = 0;
    for (const vm::SchedEvent& ev : trace) {
      if (ev.step != flat[i].step || ev.tid != flat[i].tid ||
          ev.addr != flat[i].addr || trace[i].step != flat[i].step) {
        return false;
      }
      ++i;
    }
    return i == flat.size();
  };
  vm::SchedTrace trace;
  std::vector<vm::SchedEvent> flat;
  std::vector<std::pair<vm::SchedTrace, std::vector<vm::SchedEvent>>> forks;
  for (uint64_t step = 0; step < 100; ++step) {
    trace.push_back(event(step));
    flat.push_back(event(step));
    if (step % 7 == 6) {
      forks.emplace_back(trace, flat);
    }
  }
  for (size_t f = 0; f < forks.size(); ++f) {
    for (uint64_t j = 0; j < 20; ++j) {
      forks[f].first.push_back(event(1000 * (f + 1) + j));
      forks[f].second.push_back(event(1000 * (f + 1) + j));
    }
  }
  EXPECT_TRUE(same(trace, flat));
  for (size_t f = 0; f < forks.size(); ++f) {
    EXPECT_TRUE(same(forks[f].first, forks[f].second)) << "fork " << f;
  }
}

// ---- End-to-end: pruning preserves synthesis, cuts the explored space -------

TEST(Pruning, DeadlockSynthesisStillReplaysAndExploresLess) {
  workloads::Workload w = workloads::MakeWorkload("listing1");
  auto dump = workloads::CaptureDump(*w.module, w.trigger);
  ASSERT_TRUE(dump.has_value());

  core::SynthesisOptions off;
  off.dedup = false;
  off.sleep_sets = false;
  core::SynthesisResult unpruned = core::Synthesizer(w.module.get(), off)
                                       .Synthesize(*dump);
  ASSERT_TRUE(unpruned.success) << unpruned.failure_reason;
  EXPECT_EQ(unpruned.states_deduped, 0u);
  EXPECT_EQ(unpruned.sleep_set_skips, 0u);

  core::SynthesisOptions on;  // Pruning defaults on.
  core::SynthesisResult pruned = core::Synthesizer(w.module.get(), on)
                                     .Synthesize(*dump);
  ASSERT_TRUE(pruned.success) << pruned.failure_reason;
  EXPECT_GT(pruned.states_deduped, 0u);
  EXPECT_LT(pruned.states_created, unpruned.states_created);

  replay::ReplayResult r =
      replay::Replay(*w.module, pruned.file, replay::ReplayMode::kStrict);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.bug_reproduced) << "pruned search synthesized '"
                                << vm::BugKindName(r.bug.kind) << "'";
}

// ---- Race sites and the shared visited table --------------------------------
//
// The race strategy forks only at sites the lockset detector has flagged,
// and those sites are not in a state's fingerprint. A parallel portfolio
// shares one detector among the workers that share a visited table and
// sets Engine::Options::dedup_races to it. These tests run one engine over
// the lost-update workload and flag the race from outside the search, the
// way a peer worker would.

// The racy counter's @bump load and store, flagged as racing: thread 1
// reads the counter, then thread 2 writes it, neither holding a lock.
void FlagBumpRace(const ir::Module& module, vm::RaceDetector* races) {
  uint32_t bump = *module.FindFunction("bump");
  std::vector<ir::InstRef> sites;
  const ir::Function& fn = module.Func(bump);
  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    for (uint32_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
      ir::Opcode op = fn.blocks[b].insts[i].op;
      if (op == ir::Opcode::kLoad || op == ir::Opcode::kStore) {
        sites.push_back(ir::InstRef{bump, b, i});
      }
    }
  }
  ASSERT_EQ(sites.size(), 2u);
  races->OnAccess(0x1000, 1, /*is_write=*/false, sites[0], {});
  ASSERT_TRUE(races->OnAccess(0x1000, 2, /*is_write=*/true, sites[1], {}));
}

// Depth-first, and runs `flag` on its `flag_at`-th selection (never if 0).
class FlaggingDfs : public vm::DfsSearcher {
 public:
  FlaggingDfs(std::function<void()> flag, uint64_t flag_at)
      : flag_(std::move(flag)), flag_at_(flag_at) {}
  vm::StatePtr Select() override {
    if (++selects_ == flag_at_) {
      flag_();
    }
    return DfsSearcher::Select();
  }
  uint64_t selects() const { return selects_; }

 private:
  std::function<void()> flag_;
  uint64_t flag_at_;
  uint64_t selects_ = 0;
};

// One engine over the racy counter under the race strategy, keying `visited`
// with `races`. The engine's own accesses do not feed `races`: only the test
// flags sites.
vm::Engine::Result SearchRacyCounter(const ir::Module& module,
                                     vm::RaceDetector* races,
                                     vm::FingerprintTable* visited,
                                     vm::Searcher* searcher) {
  core::Goal goal = core::ExtractGoal(module, workloads::AssertSiteDump(module));
  solver::ConstraintSolver solver;
  core::RaceStrategy policy(goal, races);
  vm::Interpreter::Options iopts;
  iopts.policy = &policy;
  vm::Interpreter interpreter(&module, &solver, iopts);
  vm::Engine::Options eopts;
  eopts.visited = visited;
  eopts.dedup_races = races;
  vm::Engine engine(&interpreter, searcher, eopts);
  engine.Start(interpreter.MakeInitialState(*module.FindFunction("main"),
                                            interpreter.AllocStateId()));
  return engine.Run([&goal](const vm::ExecutionState& state, const vm::BugInfo& bug) {
    return core::GoalMatches(goal, state, bug);
  });
}

TEST(RaceKeyedDedup, StatesRecordedBeforeAFlagDoNotPruneLaterOnes) {
  auto module = workloads::RacyCounterModule();
  vm::RaceDetector races;
  vm::FingerprintTable visited;
  // Before the race is flagged no access is a preemption point, the two
  // increments never interleave, and the search exhausts, recording every
  // state it passed.
  FlaggingDfs before({}, 0);
  vm::Engine::Result first = SearchRacyCounter(*module, &races, &visited, &before);
  ASSERT_EQ(first.status, vm::Engine::Result::Status::kExhausted);
  // After the flag, the same table must not prune the states that can now
  // fork at the racy accesses.
  FlagBumpRace(*module, &races);
  FlaggingDfs after({}, 0);
  vm::Engine::Result second = SearchRacyCounter(*module, &races, &visited, &after);
  EXPECT_EQ(second.status, vm::Engine::Result::Status::kGoalFound);
}

TEST(RaceKeyedDedup, AFlagDuringTheLastStepRestartsTheSearch) {
  auto module = workloads::RacyCounterModule();
  // Count the steps of a search that never sees the race.
  uint64_t steps = 0;
  {
    vm::RaceDetector races;
    vm::FingerprintTable visited;
    FlaggingDfs count({}, 0);
    vm::Engine::Result r = SearchRacyCounter(*module, &races, &visited, &count);
    ASSERT_EQ(r.status, vm::Engine::Result::Status::kExhausted);
    steps = count.selects();
  }
  // The same search, with the race flagged as its last step begins: every
  // state has run past the racy accesses by then, so only a restart from
  // the initial state can fork there.
  vm::RaceDetector races;
  vm::FingerprintTable visited;
  FlaggingDfs late([&] { FlagBumpRace(*module, &races); }, steps);
  vm::Engine::Result r = SearchRacyCounter(*module, &races, &visited, &late);
  EXPECT_EQ(r.status, vm::Engine::Result::Status::kGoalFound);
  EXPECT_GT(late.selects(), steps);
}

// ---- Determinism: `--jobs 1` synthesis is bit-reproducible ------------------

TEST(Determinism, SingleJobRunsAreBitIdentical) {
  // Two independent synthesizer instances, same options: the execution
  // files must match byte for byte (the RNGs are all constructor-seeded and
  // no implementation-defined distribution is used anywhere in the search).
  for (const char* name : {"listing1", "mknod"}) {
    workloads::Workload w = workloads::MakeWorkload(name);
    auto dump = workloads::CaptureDump(*w.module, w.trigger);
    ASSERT_TRUE(dump.has_value()) << name;
    core::SynthesisOptions options;
    options.seed = 7;
    core::SynthesisResult r1 = core::Synthesizer(w.module.get(), options)
                                   .Synthesize(*dump);
    core::SynthesisResult r2 = core::Synthesizer(w.module.get(), options)
                                   .Synthesize(*dump);
    ASSERT_TRUE(r1.success && r2.success) << name;
    EXPECT_EQ(r1.instructions, r2.instructions) << name;
    EXPECT_EQ(r1.states_created, r2.states_created) << name;
    EXPECT_EQ(r1.states_deduped, r2.states_deduped) << name;
    EXPECT_EQ(replay::ExecutionFileToText(r1.file),
              replay::ExecutionFileToText(r2.file))
        << name << ": --jobs 1 synthesis must be bit-reproducible";
  }
}

}  // namespace
}  // namespace esd
