// Pins the heap traffic of forking a state. ExecutionState::Fork runs at
// every scheduling decision and symbolic branch, so everything a fork copies
// and a disposal frees lives in the small-object arena (src/core/arena.h).
// This executable replaces the global operator new/delete with counting
// versions and checks that a fork's general-heap traffic does not grow with
// the state: a one-thread state and a four-thread state carrying frames,
// registers, allocas, store buffers, every sync-object kind, lock
// snapshots, a sleep set, a schedule trace and memory objects fork with
// the same number of operator new calls (at most the `constraints` and
// `inputs` vectors, which keep std::vector), and their children die with
// the same number of operator delete calls. Building Expr nodes, whose kids
// are held inline, makes no operator new call at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "src/solver/expr.h"
#include "src/vm/memory.h"
#include "src/vm/state.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_news{0};
std::atomic<size_t> g_deletes{0};

void* CountedNew(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void CountedDelete(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_deletes.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedDelete(p); }

namespace esd::vm {
namespace {

struct HeapCalls {
  size_t news = 0;
  size_t deletes = 0;
};

// General-heap calls made by `fn` on this thread.
template <typename Fn>
HeapCalls CountHeapCalls(Fn&& fn) {
  g_news = 0;
  g_deletes = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return {g_news.load(), g_deletes.load()};
}

ir::InstRef Site(uint32_t func, uint32_t block, uint32_t inst) {
  return ir::InstRef{func, block, inst};
}

// Constraints and inputs, which every state below carries: both vectors
// stay std::vector, so a fork of either state allocates them.
void AddSymbolicState(ExecutionState* st) {
  solver::ExprRef x = st->NewInput("x", 32);
  solver::ExprRef y = st->NewInput("y", 32);
  st->AddConstraint(solver::MakeUlt(x, y));
  st->AddConstraint(solver::MakeEq(solver::MakeAdd(x, solver::MakeConst(32, 3)), y));
}

StatePtr OneThreadState() {
  auto st = std::make_shared<ExecutionState>();
  Thread t;
  t.id = 0;
  StackFrame f;
  f.func = 0;
  f.regs.resize(2);
  t.frames.push_back(std::move(f));
  st->threads.push_back(std::move(t));
  AddSymbolicState(st.get());
  return st;
}

StatePtr FourThreadState() {
  auto st = std::make_shared<ExecutionState>();
  AddSymbolicState(st.get());
  const solver::ExprRef x = st->inputs[0].second;
  for (uint32_t tid = 0; tid < 4; ++tid) {
    Thread t;
    t.id = tid;
    for (uint32_t depth = 0; depth < 3; ++depth) {
      StackFrame f;
      f.func = tid;
      f.block = depth;
      f.inst = depth + 1;
      for (uint32_t r = 0; r < 12; ++r) {
        f.regs.push_back(solver::MakeAdd(x, solver::MakeConst(32, 7 * tid + r)));
      }
      f.ret_reg = depth == 0 ? -1 : 3;
      uint32_t a = st->mem.Allocate(64, ObjectKind::kStack, "frame");
      f.allocas.push_back(a);
      f.allocas.push_back(st->mem.Allocate(8, ObjectKind::kStack, "slot"));
      t.frames.push_back(std::move(f));
    }
    for (uint32_t i = 0; i < 3; ++i) {
      t.store_buffer.push_back(
          PendingStore{MakePointer(1, 4 * i), 4, x, Site(tid, 0, i)});
    }
    st->threads.push_back(std::move(t));
  }
  st->next_tid = 4;
  st->current_tid = 1;

  // Memory objects with written pages.
  uint32_t heap = st->mem.Allocate(100, ObjectKind::kHeap, "buffer");
  MemoryObject* obj = st->mem.FindWritable(heap);
  for (uint32_t off = 0; off < 100; off += 7) {
    st->mem.WriteByte(obj, off, solver::MakeExtract(x, 0, 8));
  }

  // Every sync-object kind, with waiters and readers.
  for (uint64_t addr = 0x100; addr < 0x600; addr += 0x100) {
    st->mutable_mutexes()[addr] = MutexState{true, 1, Site(1, 0, 2)};
  }
  st->mutable_cond_waiters()[0x700] = {2, 3};
  st->mutable_cond_waiters()[0x800] = {0};
  RwLockState rw;
  rw.readers = {0, 2, 2};
  st->mutable_rwlocks()[0x900] = rw;
  st->mutable_rwlocks()[0xa00].writer = 3;
  st->mutable_semaphores()[0xb00].count = 2;
  st->mutable_semaphores()[0xc00].count = 0;
  BarrierState bar;
  bar.required = 4;
  bar.waiting = {0, 3};
  st->mutable_barriers()[0xd00] = bar;

  // K_S snapshots, sleep set, schedule trace (several chunks, a partial
  // tail) and program output.
  st->lock_snapshots[0x100] = st->Fork(100);
  st->lock_snapshots[0x200] = st->Fork(101);
  for (uint32_t tid = 0; tid < 4; ++tid) {
    SyncOp op;
    op.kind = SyncOp::Kind::kMutexLock;
    op.addr = 0x100 * (tid + 1);
    op.site = st->threads[tid].Pc();
    st->SleepSetInsert(tid, op);
  }
  for (uint32_t i = 0; i < 70; ++i) {
    st->RecordEvent(SchedEvent::Kind::kSwitch, i % 4, 0x100, Site(i % 4, 0, i));
  }
  st->output = "ok";
  return st;
}

// Forks `parent` and disposes of the child, warming the arena's size
// classes first so the counted fork reuses blocks instead of carving slabs.
std::pair<HeapCalls, HeapCalls> ForkAndDispose(const ExecutionState& parent) {
  parent.Fork(1).reset();
  StatePtr child;
  HeapCalls fork = CountHeapCalls([&] { child = parent.Fork(2); });
  HeapCalls dispose = CountHeapCalls([&] { child.reset(); });
  return {fork, dispose};
}

TEST(StateAlloc, ForkHeapCallsDoNotGrowWithTheState) {
  StatePtr small = OneThreadState();
  StatePtr rich = FourThreadState();
  auto [small_fork, small_dispose] = ForkAndDispose(*small);
  auto [rich_fork, rich_dispose] = ForkAndDispose(*rich);

  EXPECT_LE(small_fork.news, 2u) << "constraints and inputs, nothing else";
  EXPECT_EQ(rich_fork.news, small_fork.news)
      << "a fork's operator new calls grew with threads, frames, sync objects, "
         "snapshots, sleep set or trace";
  EXPECT_EQ(rich_dispose.deletes, small_dispose.deletes)
      << "a disposal's operator delete calls grew with the state";
  EXPECT_EQ(small_dispose.deletes, small_fork.news);
}

TEST(StateAlloc, ForkedChildIsAnIndependentCopy) {
  StatePtr rich = FourThreadState();
  const uint64_t fp = rich->Fingerprint();
  StatePtr child = rich->Fork(7);
  EXPECT_EQ(child->Fingerprint(), fp);
  ASSERT_EQ(child->sched_trace.size(), rich->sched_trace.size());
  child->RecordEvent(SchedEvent::Kind::kThreadExit, 1, 0, Site(1, 0, 0));
  child->threads[2].frames[1].regs[4] = solver::MakeConst(32, 9);
  child->mutable_cond_waiters()[0x700].push_back(1);
  EXPECT_EQ(rich->sched_trace.size() + 1, child->sched_trace.size());
  EXPECT_EQ(rich->cond_waiters().at(0x700).size(), 2u);
  EXPECT_EQ(rich->Fingerprint(), fp);
  EXPECT_NE(child->Fingerprint(), fp);
}

TEST(StateAlloc, ExprNodesMakeNoHeapCalls) {
  const solver::ExprRef x = solver::MakeVar(1, 32, "x");
  const solver::ExprRef y = solver::MakeVar(2, 32, "y");
  auto build = [&](uint64_t k) {
    solver::ExprRef sum = solver::MakeAdd(x, solver::MakeConst(32, k));
    solver::ExprRef pick = solver::MakeIte(solver::MakeUlt(sum, y), sum, y);
    return solver::MakeExtract(pick, 8, 8);
  };
  build(1);  // Warms the arena and the constant table.
  solver::ExprRef kept;
  HeapCalls calls = CountHeapCalls([&] { kept = build(2); });
  EXPECT_EQ(calls.news, 0u);
  EXPECT_EQ(calls.deletes, 0u);
  ASSERT_EQ(kept->kind(), solver::ExprKind::kExtract);
  ASSERT_EQ(kept->kids().size(), 1u);
  EXPECT_EQ(kept->kids()[0]->kind(), solver::ExprKind::kIte);
  EXPECT_EQ(kept->kids()[0]->kids().size(), 3u);
}

}  // namespace
}  // namespace esd::vm
