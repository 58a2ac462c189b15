// ESD VM: execution states.
//
// An execution state is the paper's unit of search: program counters and
// stacks for every thread, a copy-on-write address space, the accumulated
// path constraints, synchronization bookkeeping, and the schedule trace that
// becomes the synthesized execution file. States fork at symbolic branches
// and at scheduling decisions.
#ifndef ESD_SRC_VM_STATE_H_
#define ESD_SRC_VM_STATE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/arena.h"
#include "src/ir/instruction.h"
#include "src/solver/expr.h"
#include "src/vm/memory.h"

namespace esd::vm {

class ExecutionState;
using StatePtr = std::shared_ptr<ExecutionState>;

// Containers a state owns. A fork copies every one of them and a disposal
// frees them, so they live in the small-object arena (src/core/arena.h)
// rather than the general-purpose heap.
template <typename T>
using StateVector = std::vector<T, core::ArenaAllocator<T>>;
template <typename K, typename V>
using StateMap =
    std::map<K, V, std::less<K>, core::ArenaAllocator<std::pair<const K, V>>>;

struct StackFrame {
  uint32_t func = ir::kInvalidIndex;
  uint32_t block = 0;
  uint32_t inst = 0;
  StateVector<solver::ExprRef> regs;
  // Register in the caller's frame receiving the return value (-1: none).
  int32_t ret_reg = -1;
  // Stack objects to release when this frame pops.
  StateVector<uint32_t> allocas;
};

enum class ThreadStatus : uint8_t {
  kRunnable,
  kBlockedMutex,
  kBlockedCond,
  kBlockedJoin,
  kExited,
  kBlockedRwRead,   // Waiting to read-acquire a reader-writer lock.
  kBlockedRwWrite,  // Waiting to write-acquire (possibly an upgrade).
  kBlockedSem,      // Waiting for a semaphore count to become positive.
  kBlockedBarrier,  // Arrived at a barrier that is not yet full.
};

inline bool IsBlockedStatus(ThreadStatus s) {
  return s != ThreadStatus::kRunnable && s != ThreadStatus::kExited;
}

// An atomic store parked in its thread's TSO store buffer: globally
// invisible until a flush point (release/seq_cst store, RMW, fence, thread
// exit) drains it or a drain fork commits it out of order. The owning
// thread's atomic loads still see it (store-to-load forwarding).
struct PendingStore {
  uint64_t addr = 0;
  uint32_t width = 0;  // Bytes.
  solver::ExprRef value;
  ir::InstRef site;  // The buffering store's call site (for the flush event).
};

// Per-thread store-buffer capacity; a relaxed store into a full buffer
// force-drains the oldest entry first (hardware buffers are finite too).
inline constexpr size_t kStoreBufferCap = 8;

struct Thread {
  uint32_t id = 0;
  ThreadStatus status = ThreadStatus::kRunnable;
  StateVector<StackFrame> frames;
  uint64_t wait_mutex = 0;        // Address when kBlockedMutex.
  uint64_t wait_cond = 0;         // Address when kBlockedCond.
  uint64_t cond_saved_mutex = 0;  // Mutex to reacquire after cond wakeup.
  bool cond_signaled = false;     // Woken, waiting to reacquire the mutex.
  uint32_t join_tid = ir::kInvalidIndex;  // Target when kBlockedJoin.
  // Rwlock / semaphore / barrier address when blocked on one of them.
  uint64_t wait_sync = 0;
  // Released from a barrier; the re-executed barrier_wait completes.
  bool barrier_released = false;
  // Pending atomic stores, oldest first. Entries for one address keep FIFO
  // order (a later store to the same address can never pass an earlier
  // one); entries for different addresses may drain in any order — the
  // relaxed-store reordering that makes stale-read interleavings reachable.
  StateVector<PendingStore> store_buffer;

  ir::InstRef Pc() const {
    if (frames.empty()) {
      return {};
    }
    const StackFrame& f = frames.back();
    return ir::InstRef{f.func, f.block, f.inst};
  }
};

struct MutexState {
  bool locked = false;
  uint32_t holder = ir::kInvalidIndex;
  // Call site of the current holder's acquisition; the deadlock strategy
  // compares this against the reported threads' inner-lock sites (§4.1).
  ir::InstRef acquired_at;
};

// Reader-writer lock. Write acquisition by the sole reader upgrades in
// place; with other readers present the writer blocks until they drain —
// which is exactly the schedule-dependent upgrade deadlock when two readers
// both try to upgrade. Read acquisition is recursive (counting): a tid may
// appear in `readers` more than once.
struct RwLockState {
  uint32_t writer = ir::kInvalidIndex;  // kInvalidIndex: no active writer.
  StateVector<uint32_t> readers;        // Multiset of read-holding tids.
  ir::InstRef acquired_at;              // The active writer's acquisition site.

  bool Free() const { return writer == ir::kInvalidIndex && readers.empty(); }
  uint32_t ReaderCount(uint32_t tid) const {
    uint32_t n = 0;
    for (uint32_t r : readers) {
      n += r == tid ? 1 : 0;
    }
    return n;
  }
};

// Counting semaphore. A nonexistent entry behaves as count 0.
struct SemState {
  uint32_t count = 0;
};

// Barrier: `required` arrivals release everyone. `required == 0` means
// uninitialized (barrier_wait on it blocks forever and barrier_init rejects
// a zero count as invalid-sync).
struct BarrierState {
  uint32_t required = 0;
  StateVector<uint32_t> waiting;  // Tids parked at the barrier.
};

// One entry of the serialized schedule trace; used both to detect the goal
// interleaving and to emit the execution file for playback.
struct SchedEvent {
  enum class Kind : uint8_t {
    kSwitch,       // Scheduler switched to thread `tid` at step `step`.
    kMutexLock,    // `tid` acquired mutex `addr` (lock or successful trylock).
    kMutexUnlock,
    kCondWait,
    kCondWake,
    kThreadCreate,  // `tid` = new thread id.
    kThreadExit,
    // Appended after kThreadExit so the text names above keep their
    // numeric positions (the on-disk format is name-based; see
    // replay/execution_file.cc for the names).
    kRwRdLock,    // `tid` read-acquired rwlock `addr` (incl. tryrdlock).
    kRwWrLock,    // `tid` write-acquired rwlock `addr` (incl. upgrade).
    kRwUnlock,
    kSemWait,     // `tid` decremented semaphore `addr` (incl. trywait).
    kSemPost,
    kBarrierWait,  // `tid` passed barrier `addr`.
    // A try operation (mutex_trylock, rwlock_try*, sem_trywait) observed
    // the object busy/empty and failed without blocking. Recorded so
    // happens-before replay can order the failed attempt inside the
    // contention window that made it fail — without it the attempt leaves
    // no trace and the window is unreproducible from hb events alone.
    kTryFail,
    // C11 atomics (appended after kTryFail; the on-disk format is
    // name-based, see replay/execution_file.cc). `addr` is the accessed
    // location; the memory order is not recorded — the event sequence
    // already pins the interleaving.
    kAtomicLoad,   // `tid` atomically read `addr`.
    kAtomicStore,  // `tid` issued an atomic store to `addr` (any order).
    kAtomicRmw,    // exchange / fetch_add / cas by `tid` on `addr`.
    kAtomicFence,  // `tid` executed an atomic_fence.
    // `tid`'s buffered store to `addr` became globally visible. Flush
    // events are what make weak-memory executions replayable: strict and
    // happens-before replay re-apply them at the recorded points instead
    // of letting the buffer drain in program order.
    kAtomicFlush,
  };
  Kind kind;
  uint32_t tid = 0;
  uint64_t addr = 0;
  uint64_t step = 0;
  ir::InstRef site;
};

// Append-only schedule trace with copy-on-write chunk sharing. Forking a
// state used to deep-copy the whole trace — O(events executed so far) per
// fork, the dominant fork cost on long executions. Instead the trace is a
// list of fixed-size chunks held by shared_ptr: a fork copies only the
// chunk-pointer list, and the first append after a fork clones just the
// (partially filled) last chunk. Every chunk except the last is full, so
// indexing stays O(1). The interface is the subset of std::vector the
// trace's consumers use (append, size, operator[], range-for).
//
// A chunk holds 16 events (640 bytes) inline, so a chunk and its
// shared_ptr control block are one arena block (the arena pools requests up
// to 1 KiB), as is the chunk-pointer list of all but very long traces.
class SchedTrace {
 public:
  void push_back(const SchedEvent& ev) {
    if (chunks_.empty() || chunks_.back()->size == kChunk) {
      chunks_.push_back(std::allocate_shared<Chunk>(core::ArenaAllocator<Chunk>()));
    } else if (chunks_.back().use_count() > 1) {
      // Shared with a fork sibling: clone the tail chunk before appending.
      chunks_.back() =
          std::allocate_shared<Chunk>(core::ArenaAllocator<Chunk>(), *chunks_.back());
    }
    Chunk& tail = *chunks_.back();
    tail.events[tail.size++] = ev;
    ++size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const SchedEvent& operator[](size_t i) const {
    return chunks_[i >> kChunkLog2]->events[i & (kChunk - 1)];
  }

  class const_iterator {
   public:
    const_iterator(const SchedTrace* trace, size_t index)
        : trace_(trace), index_(index) {}
    const SchedEvent& operator*() const { return (*trace_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator!=(const const_iterator& other) const {
      return index_ != other.index_;
    }

   private:
    const SchedTrace* trace_;
    size_t index_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  static constexpr size_t kChunkLog2 = 4;
  static constexpr size_t kChunk = size_t{1} << kChunkLog2;

  struct Chunk {
    SchedEvent events[kChunk] = {};
    size_t size = 0;  // Filled prefix of events.
  };

  StateVector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

// Schedule-distance classification used by the deadlock strategy (§4.1):
// states believed to be one context switch away from the reported deadlock
// are "near" and get strong search priority.
inline constexpr double kScheduleFar = 1.0;
inline constexpr double kScheduleNear = 0.0;

// A synchronization (or flagged racy) operation announced to schedule
// policies at preemption points. Lives here (not in schedule_policy.h) so
// the state's sleep set can record them.
struct SyncOp {
  enum class Kind : uint8_t {
    kMutexLock,  // Also announced for mutex_trylock (same object, same
                 // dependency footprint whether or not it would block).
    kMutexUnlock,
    kCondWait,
    kCondSignal,
    kCondBroadcast,
    kThreadCreate,
    kThreadJoin,
    kRacyLoad,
    kRacyStore,
    kYield,
    kRwRdLock,  // Also announced for the try variants.
    kRwWrLock,
    kRwUnlock,
    kSemWait,   // Also announced for sem_trywait.
    kSemPost,
    kBarrierWait,
    kAtomicLoad,   // Atomic read of `addr` (any memory order).
    kAtomicStore,  // Atomic write of `addr` (any memory order).
    kAtomicRmw,    // exchange / fetch_add / cas on `addr`.
    kAtomicFence,  // No address; orders the thread's own buffered stores.
  };
  Kind kind;
  uint64_t addr = 0;  // Mutex / condvar / memory address, when applicable.
  ir::InstRef site;
};

// One sleeping operation: thread `tid` was parked at `op.site`, about to
// perform `op`, when a schedule fork chose to run another thread instead.
// The continuation that lets `tid` proceed immediately is covered by the
// fork's sibling, so re-forking back to `tid` is redundant until some
// dependent operation executes (see ExecutionState::SleepSetWake).
struct SleepEntry {
  uint32_t tid = 0;
  SyncOp op;
};

class ExecutionState {
 public:
  ExecutionState() = default;

  // Deep-copies control state; shares memory objects copy-on-write.
  StatePtr Fork(uint64_t new_id) const;

  Thread& CurrentThread() { return threads[current_tid]; }
  const Thread& CurrentThread() const { return threads[current_tid]; }
  StackFrame& CurrentFrame() { return CurrentThread().frames.back(); }

  Thread* FindThread(uint32_t tid) {
    for (Thread& t : threads) {
      if (t.id == tid) {
        return &t;
      }
    }
    return nullptr;
  }

  int RunnableCount() const {
    int n = 0;
    for (const Thread& t : threads) {
      n += t.status == ThreadStatus::kRunnable ? 1 : 0;
    }
    return n;
  }

  bool AllExited() const {
    for (const Thread& t : threads) {
      if (t.status != ThreadStatus::kExited) {
        return false;
      }
    }
    return true;
  }

  void RecordEvent(SchedEvent::Kind kind, uint32_t tid, uint64_t addr,
                   ir::InstRef site) {
    sched_trace.push_back(SchedEvent{kind, tid, addr, steps, site});
  }

  // Allocates a fresh symbolic variable and remembers it as a program input.
  solver::ExprRef NewInput(const std::string& name, uint32_t width);

  // Appends a path constraint, keeping the rolling constraint digest the
  // fingerprint folds in current (O(1) instead of rehashing the whole
  // vector per fingerprint). All constraint appends must go through here —
  // a direct push to `constraints` would silently stale the digest.
  //
  // The constraint is stored exactly as given (the expr.h factories have
  // already folded its constant subtrees), so the stored set, the digest,
  // and every solver query see the interpreter's own DAG. A constant-true
  // constraint is dropped outright.
  void AddConstraint(solver::ExprRef c);

  // ---- Redundancy pruning (sleep sets + state fingerprint) ----

  // True if thread `tid` is asleep here: a sleep entry records it parked at
  // exactly its current pc. Schedule policies skip forking to such threads.
  bool SleepSetBlocks(uint32_t tid) const;
  // Records that `tid` (about to perform `op`) was the not-chosen side of a
  // schedule fork in this state.
  void SleepSetInsert(uint32_t tid, const SyncOp& op);
  // An operation is about to execute in this state: wake (drop) every sleep
  // entry dependent on it — same memory address with a write involved for
  // racy pairs, same address for sync objects, and conservatively any
  // condvar/thread-lifecycle operation. Entries of the current thread and
  // entries whose thread moved past the recorded site are dropped as stale.
  void SleepSetWake(const SyncOp& op);
  // A plain (unflagged) load or store at `addr`: wakes dependent entries.
  // Cheap no-op while the sleep set is empty.
  void SleepSetWakeAccess(uint64_t addr, bool is_write);

  // ---- TSO store buffer ----

  // Makes thread `tid`'s oldest buffered store to `addr` globally visible:
  // writes it through to memory (silently dropped if the object was freed
  // meanwhile — the parked store has nowhere to land), records a
  // kAtomicFlush event, and wakes dependent sleep entries. Returns false
  // if the thread has no pending store to `addr`. Shared by the
  // interpreter's flush points and the replayer's recorded-flush
  // application, so both sides commit identically.
  bool CommitBufferedStore(uint32_t tid, uint64_t addr);
  // Drains every pending store of `t`, oldest first (program order).
  void DrainStoreBuffer(Thread& t);

  // 64-bit fingerprint of everything that determines this state's future
  // behavior: per-thread stacks / registers / blocking state, the memory
  // content hash maintained incrementally by AddressSpace, sync-object
  // state, the path-constraint digest, and the scheduled thread. States
  // reached through different interleavings of independent operations
  // collide (that is the point); states differing in any behavior-relevant
  // component do not (modulo 64-bit hash collisions). Traces, priorities,
  // and other search metadata are excluded.
  uint64_t Fingerprint() const;

  // ---- Identity & bookkeeping ----
  uint64_t id = 0;
  uint64_t steps = 0;        // Instructions executed in this state's history.
  uint64_t depth = 0;        // Fork depth (for tree searchers).
  uint64_t parent_id = 0;
  uint32_t preemptions = 0;  // Forced context switches (KC bounding).

  // ---- Program state ----
  AddressSpace mem;
  StateVector<Thread> threads;
  uint32_t current_tid = 0;
  uint32_t next_tid = 1;

  // ---- Symbolic state ----
  std::vector<solver::ExprRef> constraints;  // Append via AddConstraint.
  // Rolling order-sensitive digest of `constraints` (structural hashes),
  // maintained by AddConstraint and copied with the state on fork.
  uint64_t constraints_digest = 0;
  uint64_t next_var_id = 1;
  // Input registry in creation order: (name, var expr).
  std::vector<std::pair<std::string, solver::ExprRef>> inputs;

  // ---- Synchronization ----
  // The five sync-object maps live behind paired accessors: readers use the
  // const form; writers must go through the mutable_* form, which
  // invalidates the memoized sync fold the fingerprint reuses (the compiler
  // enforces that no mutation can skip the invalidation). Keyed by the sync
  // object's address; cond_waiters maps condvar address -> waiting tids.
  const StateMap<uint64_t, MutexState>& mutexes() const { return mutexes_; }
  const StateMap<uint64_t, StateVector<uint32_t>>& cond_waiters() const {
    return cond_waiters_;
  }
  const StateMap<uint64_t, RwLockState>& rwlocks() const { return rwlocks_; }
  const StateMap<uint64_t, SemState>& semaphores() const { return semaphores_; }
  const StateMap<uint64_t, BarrierState>& barriers() const { return barriers_; }
  StateMap<uint64_t, MutexState>& mutable_mutexes() {
    sync_fold_valid_ = false;
    return mutexes_;
  }
  StateMap<uint64_t, StateVector<uint32_t>>& mutable_cond_waiters() {
    sync_fold_valid_ = false;
    return cond_waiters_;
  }
  StateMap<uint64_t, RwLockState>& mutable_rwlocks() {
    sync_fold_valid_ = false;
    return rwlocks_;
  }
  StateMap<uint64_t, SemState>& mutable_semaphores() {
    sync_fold_valid_ = false;
    return semaphores_;
  }
  StateMap<uint64_t, BarrierState>& mutable_barriers() {
    sync_fold_valid_ = false;
    return barriers_;
  }

  // ---- Traces & strategy metadata ----
  SchedTrace sched_trace;
  std::string output;  // Concatenated print_* output.
  // The paper's K_S map: mutex address -> snapshot state forked just before
  // that mutex was acquired (deadlock schedule synthesis, §4.1).
  StateMap<uint64_t, StatePtr> lock_snapshots;
  double schedule_distance = kScheduleFar;
  bool is_schedule_snapshot = false;
  // Sleeping (thread, operation) pairs; forks copy it with the state.
  StateVector<SleepEntry> sleep_set;

 private:
  // XOR aggregate of the sync-object contributions to the fingerprint.
  uint64_t SyncFold() const;

  StateMap<uint64_t, MutexState> mutexes_;
  StateMap<uint64_t, StateVector<uint32_t>> cond_waiters_;
  StateMap<uint64_t, RwLockState> rwlocks_;
  StateMap<uint64_t, SemState> semaphores_;
  StateMap<uint64_t, BarrierState> barriers_;
  // Memoized SyncFold(): sync objects change only at sync operations, while
  // the fingerprint is taken at every sync point and schedule fork — so the
  // fold is reused across the (frequent) fingerprints between (rare)
  // mutations. Forks inherit the cache with the state.
  mutable uint64_t sync_fold_ = 0;
  mutable bool sync_fold_valid_ = false;
};

}  // namespace esd::vm

#endif  // ESD_SRC_VM_STATE_H_
