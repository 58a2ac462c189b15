#include "src/vm/state.h"

#include <algorithm>

#include "src/core/arena.h"
#include "src/core/event_counters.h"
#include "src/vm/fingerprint.h"

namespace esd::vm {
namespace {

constexpr auto Mix64 = FingerprintMix64;

// Order-sensitive fold (sequences where order matters must not XOR-cancel).
uint64_t Fold(uint64_t h, uint64_t v) { return Mix64(h ^ Mix64(v)); }

uint64_t HashInstRef(ir::InstRef r) {
  return (uint64_t{r.func} << 40) ^ (uint64_t{r.block} << 20) ^ r.inst;
}

bool IsRacy(SyncOp::Kind k) {
  return k == SyncOp::Kind::kRacyLoad || k == SyncOp::Kind::kRacyStore;
}

// Conservative wake rule: does executing `op` interfere with sleeping `e`?
bool Dependent(const SyncOp& e, const SyncOp& op) {
  if (IsRacy(e.kind) && IsRacy(op.kind)) {
    // Two data accesses: dependent when they may touch the same data and at
    // least one writes. Addresses are compared at *object* granularity
    // (multi-byte accesses at different offsets of one object can overlap;
    // byte-exact comparison would leave a conflicting entry asleep), and an
    // address of 0 means the pointer was symbolic at the preemption point —
    // independence cannot be shown, so it conflicts with everything.
    if (e.addr == 0 || op.addr == 0) {
      return true;
    }
    return PointerObject(e.addr) == PointerObject(op.addr) &&
           (e.kind == SyncOp::Kind::kRacyStore ||
            op.kind == SyncOp::Kind::kRacyStore);
  }
  if (op.kind == SyncOp::Kind::kYield || e.kind == SyncOp::Kind::kYield) {
    return false;  // Yields order nothing.
  }
  auto is_atomic = [](SyncOp::Kind k) {
    return k == SyncOp::Kind::kAtomicLoad || k == SyncOp::Kind::kAtomicStore ||
           k == SyncOp::Kind::kAtomicRmw || k == SyncOp::Kind::kAtomicFence;
  };
  if (is_atomic(e.kind) || is_atomic(op.kind)) {
    // A fence drains the executing thread's store buffer, changing what
    // every other thread may read next: conservatively dependent on any
    // atomic or plain data access (it carries no address to compare).
    if (e.kind == SyncOp::Kind::kAtomicFence ||
        op.kind == SyncOp::Kind::kAtomicFence) {
      return true;
    }
    if ((is_atomic(e.kind) || IsRacy(e.kind)) &&
        (is_atomic(op.kind) || IsRacy(op.kind))) {
      // Atomic/atomic and mixed atomic/plain pairs behave like data
      // accesses: object-granularity overlap with at least one writer.
      // Two atomic loads commute.
      if (e.addr == 0 || op.addr == 0) {
        return true;
      }
      auto writes = [](SyncOp::Kind k) {
        return k == SyncOp::Kind::kRacyStore ||
               k == SyncOp::Kind::kAtomicStore || k == SyncOp::Kind::kAtomicRmw;
      };
      return PointerObject(e.addr) == PointerObject(op.addr) &&
             (writes(e.kind) || writes(op.kind));
    }
    // Atomic vs. a blocking sync-object operation: the sync object's word
    // may live inside the atomically-accessed object, so compare at object
    // granularity.
    return e.addr == 0 || op.addr == 0 ||
           PointerObject(e.addr) == PointerObject(op.addr);
  }
  // Sync-object operations: same address interferes. Condvar and
  // thread-lifecycle operations change wakeup/thread structure in ways the
  // address alone does not capture, so they wake everything (conservative;
  // mutex-only code keeps its pruning).
  auto broad = [](SyncOp::Kind k) {
    return k == SyncOp::Kind::kCondWait || k == SyncOp::Kind::kCondSignal ||
           k == SyncOp::Kind::kCondBroadcast || k == SyncOp::Kind::kThreadCreate ||
           k == SyncOp::Kind::kThreadJoin;
  };
  if (broad(op.kind) || broad(e.kind)) {
    return true;
  }
  if (IsRacy(e.kind) || IsRacy(op.kind)) {
    // Mixed data/sync pair: the lock word lives inside an object a data
    // access may touch, so compare at object granularity (and a symbolic
    // address conflicts with everything).
    return e.addr == 0 || op.addr == 0 ||
           PointerObject(e.addr) == PointerObject(op.addr);
  }
  // Sync object vs. sync object (mutex / rwlock / semaphore / barrier
  // operations alike): the exact address identifies the object; a zero
  // address means the pointer was symbolic at the preemption point, so
  // independence cannot be shown and the pair conservatively conflicts.
  // Note two rdlocks of the same rwlock are treated as dependent even
  // though both can hold simultaneously — their order still decides when an
  // upgrading writer may proceed, so commuting them is not sound.
  if (e.addr == 0 || op.addr == 0) {
    return true;
  }
  return e.addr == op.addr;
}

}  // namespace

StatePtr ExecutionState::Fork(uint64_t new_id) const {
  CountEvent(&EventCounters::state_forks);
  auto child = std::allocate_shared<ExecutionState>(
      core::ArenaAllocator<ExecutionState>(), *this);
  child->id = new_id;
  child->parent_id = id;
  child->depth = depth + 1;
  return child;
}

solver::ExprRef ExecutionState::NewInput(const std::string& name, uint32_t width) {
  uint64_t var_id = next_var_id++;
  std::string unique = name + "#" + std::to_string(var_id);
  solver::ExprRef var = solver::MakeVar(var_id, width, unique);
  inputs.emplace_back(unique, var);
  return var;
}

void ExecutionState::AddConstraint(solver::ExprRef c) {
  if (c->IsTrue()) {
    return;  // Trivially true: never reaches the solver or the digest.
  }
  constraints_digest = Fold(constraints_digest, static_cast<uint64_t>(c->hash()));
  constraints.push_back(std::move(c));
}

bool ExecutionState::SleepSetBlocks(uint32_t tid) const {
  for (const SleepEntry& e : sleep_set) {
    if (e.tid != tid) {
      continue;
    }
    for (const Thread& t : threads) {
      if (t.id == tid) {
        // Only a thread still parked at the recorded site is asleep; if it
        // has moved, the entry is stale (dropped lazily by SleepSetWake).
        return t.Pc() == e.op.site;
      }
    }
  }
  return false;
}

void ExecutionState::SleepSetInsert(uint32_t tid, const SyncOp& op) {
  sleep_set.push_back(SleepEntry{tid, op});
}

void ExecutionState::SleepSetWake(const SyncOp& op) {
  if (sleep_set.empty()) {
    return;
  }
  auto stale = [this](const SleepEntry& e) {
    if (e.tid == current_tid) {
      return true;  // Its thread is running: the parked continuation is live.
    }
    for (const Thread& t : threads) {
      if (t.id == e.tid) {
        return t.Pc() != e.op.site;
      }
    }
    return true;  // Thread gone.
  };
  sleep_set.erase(std::remove_if(sleep_set.begin(), sleep_set.end(),
                                 [&](const SleepEntry& e) {
                                   return stale(e) || Dependent(e.op, op);
                                 }),
                  sleep_set.end());
}

void ExecutionState::SleepSetWakeAccess(uint64_t addr, bool is_write) {
  if (sleep_set.empty()) {
    return;
  }
  SyncOp op;
  op.kind = is_write ? SyncOp::Kind::kRacyStore : SyncOp::Kind::kRacyLoad;
  op.addr = addr;
  sleep_set.erase(std::remove_if(sleep_set.begin(), sleep_set.end(),
                                 [&](const SleepEntry& e) {
                                   return Dependent(e.op, op);
                                 }),
                  sleep_set.end());
}

bool ExecutionState::CommitBufferedStore(uint32_t tid, uint64_t addr) {
  Thread* t = FindThread(tid);
  if (t == nullptr) {
    return false;
  }
  auto it = std::find_if(
      t->store_buffer.begin(), t->store_buffer.end(),
      [&](const PendingStore& p) { return p.addr == addr; });
  if (it == t->store_buffer.end()) {
    return false;
  }
  PendingStore p = std::move(*it);
  t->store_buffer.erase(it);
  MemoryObject* obj = mem.FindWritable(PointerObject(p.addr));
  uint64_t offset = PointerOffset(p.addr);
  if (obj != nullptr && !obj->freed && offset + p.width <= obj->size) {
    for (uint32_t i = 0; i < p.width; ++i) {
      mem.WriteByte(obj, static_cast<uint32_t>(offset) + i,
                    solver::MakeExtract(p.value, i * 8, 8));
    }
  }
  RecordEvent(SchedEvent::Kind::kAtomicFlush, tid, p.addr, p.site);
  SleepSetWakeAccess(p.addr, /*is_write=*/true);
  return true;
}

void ExecutionState::DrainStoreBuffer(Thread& t) {
  while (!t.store_buffer.empty()) {
    CommitBufferedStore(t.id, t.store_buffer.front().addr);
  }
}

uint64_t ExecutionState::Fingerprint() const {
  uint64_t h = 0x2545f4914f6cdd1dull;
  // Control state: which thread runs, per-thread stacks and registers.
  h = Fold(h, current_tid);
  h = Fold(h, next_tid);
  h = Fold(h, preemptions);  // KC bounding: budgets left must match to merge.
  for (const Thread& t : threads) {
    uint64_t th = Fold(uint64_t{t.id} << 8, static_cast<uint64_t>(t.status));
    th = Fold(th, t.wait_mutex);
    th = Fold(th, t.wait_cond);
    th = Fold(th, t.cond_saved_mutex ^ (t.cond_signaled ? 1u : 0u));
    th = Fold(th, t.join_tid);
    th = Fold(th, t.wait_sync ^ (t.barrier_released ? 2u : 0u));
    // Pending (unflushed) atomic stores are future memory writes: a state
    // whose buffer still holds a store must never merge with the state
    // where it already drained. Order-sensitive fold — same-address
    // entries drain FIFO, so buffer order is behavior. An empty buffer
    // contributes nothing (pre-atomic states fingerprint as before).
    for (const PendingStore& p : t.store_buffer) {
      th = Fold(th, Fold(Fold(p.addr, p.width),
                         static_cast<uint64_t>(p.value->hash())));
    }
    for (const StackFrame& f : t.frames) {
      th = Fold(th, HashInstRef(ir::InstRef{f.func, f.block, f.inst}));
      for (size_t r = 0; r < f.regs.size(); ++r) {
        if (f.regs[r] != nullptr) {
          th = Fold(th, (uint64_t{static_cast<uint32_t>(r)} << 32) ^
                            static_cast<uint64_t>(f.regs[r]->hash()));
        }
      }
    }
    h ^= Mix64(th);  // XOR-fold across threads (id-keyed, order-free).
  }
  // Memory: incremental content hash maintained by the address space.
  h = Fold(h, mem.content_hash());
  // Sync objects: a pure XOR aggregate, memoized — recomputed only after a
  // mutation through a mutable_* accessor invalidated it.
  if (!sync_fold_valid_) {
    sync_fold_ = SyncFold();
    sync_fold_valid_ = true;
    CountEvent(&EventCounters::sync_fold_recomputes);
  } else {
    CountEvent(&EventCounters::sync_fold_reuses);
  }
  h ^= sync_fold_;
  // Symbolic state: the rolling constraint digest (maintained by
  // AddConstraint) and input counter. Different path conditions must never
  // be merged.
  h = Fold(h, next_var_id);
  h = Fold(h, constraints_digest);
  // Active sleep entries. A state whose sleep set suppresses forks must not
  // be merged with (or cover) one that would still fork them — the classic
  // sleep-sets-plus-state-caching unsoundness: the suppressed interleaving
  // would be explored by neither. Only *active* entries matter (thread
  // still parked at the recorded site and not currently scheduled); stale
  // entries influence nothing and would just block legitimate merges.
  // Wrapping addition keeps the fold order-free without letting duplicate
  // entries cancel.
  for (const SleepEntry& e : sleep_set) {
    if (e.tid == current_tid) {
      continue;
    }
    for (const Thread& t : threads) {
      if (t.id == e.tid && t.Pc() == e.op.site) {
        h += Mix64(Fold(Fold(uint64_t{e.tid} << 8 | static_cast<uint64_t>(e.op.kind),
                             e.op.addr),
                        HashInstRef(e.op.site)));
        break;
      }
    }
  }
  return h;
}


uint64_t ExecutionState::SyncFold() const {
  uint64_t sf = 0;
  // An unlocked mutex contributes nothing, so "never locked" and "locked
  // then unlocked" states agree.
  for (const auto& [addr, m] : mutexes_) {
    if (m.locked) {
      sf ^= Mix64(Fold(Fold(addr, m.holder), HashInstRef(m.acquired_at)));
    }
  }
  for (const auto& [addr, waiters] : cond_waiters_) {
    uint64_t ch = addr;
    for (uint32_t w : waiters) {
      ch = Fold(ch, w);
    }
    if (!waiters.empty()) {
      sf ^= Mix64(ch);
    }
  }
  // Rwlocks: a fully free lock contributes nothing, so "never used" and
  // "acquired then released" agree. Readers fold order-free (wrapping add of
  // mixed entries) — the hold multiset, not the acquisition order, is what
  // determines future behavior.
  for (const auto& [addr, rw] : rwlocks_) {
    if (rw.Free()) {
      continue;
    }
    uint64_t rh = Fold(addr, rw.writer);
    uint64_t readers = 0;
    for (uint32_t r : rw.readers) {
      readers += Mix64(uint64_t{r} + 0x9e3779b97f4a7c15ull);
    }
    rh = Fold(rh, readers);
    if (rw.writer != ir::kInvalidIndex) {
      rh = Fold(rh, HashInstRef(rw.acquired_at));
    }
    sf ^= Mix64(rh);
  }
  // Semaphores: count 0 behaves exactly like an absent entry (both block).
  for (const auto& [addr, sem] : semaphores_) {
    if (sem.count != 0) {
      sf ^= Mix64(Fold(addr, sem.count));
    }
  }
  // Barriers: the required count matters even with nobody waiting (it
  // decides how many future arrivals release), so every initialized barrier
  // contributes. Waiters fold order-free — releases are all-at-once.
  for (const auto& [addr, bar] : barriers_) {
    if (bar.required == 0 && bar.waiting.empty()) {
      continue;
    }
    uint64_t bh = Fold(addr, bar.required);
    uint64_t waiting = 0;
    for (uint32_t w : bar.waiting) {
      waiting += Mix64(uint64_t{w} + 0x9e3779b97f4a7c15ull);
    }
    bh = Fold(bh, waiting);
    sf ^= Mix64(bh);
  }
  return sf;
}

}  // namespace esd::vm
