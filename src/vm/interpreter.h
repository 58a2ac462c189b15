// ESD VM: the instruction interpreter.
//
// One interpreter serves both modes the paper needs:
//   - symbolic execution (synthesis): inputs are fresh symbolic variables,
//     symbolic branches fork states, scheduling hooks fire at preemption
//     points;
//   - concrete execution (stress testing and deterministic playback): an
//     InputProvider supplies input values, every expression stays constant,
//     and a replay policy enforces the recorded schedule.
// Using a single code path removes divergence between what synthesis
// explored and what playback executes.
#ifndef ESD_SRC_VM_INTERPRETER_H_
#define ESD_SRC_VM_INTERPRETER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/solver/solver.h"
#include "src/vm/race_detector.h"
#include "src/vm/schedule_policy.h"
#include "src/vm/state.h"

namespace esd::vm {

struct BugInfo {
  enum class Kind : uint8_t {
    kNone,
    kNullDeref,
    kOutOfBounds,
    kUseAfterFree,
    kInvalidFree,
    kDoubleFree,
    kAssertFail,
    kDivByZero,
    kDeadlock,
    kAbort,
    kUnreachable,
    kInvalidSync,
    kInternalError,
  };
  Kind kind = Kind::kNone;
  ir::InstRef pc;
  uint32_t tid = 0;
  uint64_t fault_addr = 0;
  std::string message;

  bool IsBug() const { return kind != Kind::kNone; }
};

std::string_view BugKindName(BugInfo::Kind kind);

// External functions handled by the VM (the paper's environment model plus
// the POSIX-thread layer of §6.1: mutexes, condvars, reader-writer locks,
// counting semaphores, barriers, and thread lifecycle).
enum class ExternalId : uint8_t {
  kGetchar,
  kGetenv,
  kInputI32,
  kInputI64,
  kInputBytes,
  kMalloc,
  kFree,
  kMemset,
  kMemcpy,
  kStrlen,
  kPrintStr,
  kPrintI64,
  kExit,
  kAbort,
  kAssert,
  kThreadCreate,
  kThreadJoin,
  kMutexInit,
  kMutexLock,
  kMutexTryLock,
  kMutexUnlock,
  kCondInit,
  kCondWait,
  kCondSignal,
  kCondBroadcast,
  kRwLockInit,
  kRwRdLock,
  kRwTryRdLock,
  kRwWrLock,
  kRwTryWrLock,
  kRwUnlock,
  kSemInit,
  kSemWait,
  kSemTryWait,
  kSemPost,
  kBarrierInit,
  kBarrierWait,
  kYield,
  // C11 atomics. The last i32 argument carries the memory order in C11
  // numbering (0 relaxed, 2 acquire, 3 release, 4 acq_rel, 5 seq_cst); see
  // "Atomics & the TSO store buffer" in docs/ARCHITECTURE.md.
  kAtomicLoad,
  kAtomicStore,
  kAtomicExchange,
  kAtomicFetchAdd,
  kAtomicCas,
  kAtomicFence,
  kUnknown,
};

// Resolves an external function name (e.g. "rwlock_rdlock") to its id;
// kUnknown for unmodeled names.
ExternalId LookupExternal(const std::string& name);

// The one mapping from externals to synchronization operations: used both
// to announce preemption points to schedule policies and to mark
// StepResult::sync_point for the engine's dedup — a single table so the
// two can never drift. Try variants map to their blocking siblings' kinds
// (same object, same dependency footprint). nullopt for non-sync externals
// (including the *_init calls, which touch no other thread).
std::optional<SyncOp::Kind> SyncKindOf(ExternalId id);

struct StepResult {
  // New states created by this step (branch forks and schedule variants).
  std::vector<StatePtr> forks;
  // Set when the stepped state is finished (normal exit, infeasible path,
  // or a bug in this state).
  bool state_done = false;
  // The step executed a synchronization call: interleavings of independent
  // operations reconverge at these boundaries, so the engine's state
  // deduplication fingerprints the state here.
  bool sync_point = false;
  BugInfo bug;  // kNone unless a bug terminated the state.
};

// Supplies concrete input values during playback / stress runs.
class InputProvider {
 public:
  virtual ~InputProvider() = default;
  virtual uint64_t GetValue(const std::string& name, uint32_t width) = 0;
};

class Interpreter {
 public:
  // One synchronization-external call, as handed to a SyncHandler: the
  // resolved id, the call instruction (for result plumbing), its site, and
  // the pre-evaluated arguments.
  struct SyncCall {
    ExternalId ext;
    const ir::Instruction& inst;
    ir::InstRef site;
    const std::vector<solver::ExprRef>& args;
  };
  // Table-driven sync dispatch: every synchronization external resolves to
  // one of these through the table in interpreter.cc, instead of growing
  // the ExecExternal switch per primitive. The handlers are public only so
  // the table can name them; call through Step(), never directly.
  using SyncHandler = StepResult (Interpreter::*)(ExecutionState&, const SyncCall&);
  StepResult ExecThreadCreate(ExecutionState& state, const SyncCall& call);
  StepResult ExecThreadJoin(ExecutionState& state, const SyncCall& call);
  StepResult ExecSyncObjectInit(ExecutionState& state, const SyncCall& call);
  StepResult ExecMutexLock(ExecutionState& state, const SyncCall& call);
  StepResult ExecMutexUnlock(ExecutionState& state, const SyncCall& call);
  StepResult ExecCondWait(ExecutionState& state, const SyncCall& call);
  StepResult ExecCondWake(ExecutionState& state, const SyncCall& call);
  StepResult ExecRwLock(ExecutionState& state, const SyncCall& call);
  StepResult ExecRwUnlock(ExecutionState& state, const SyncCall& call);
  StepResult ExecSemWait(ExecutionState& state, const SyncCall& call);
  StepResult ExecSemPost(ExecutionState& state, const SyncCall& call);
  StepResult ExecBarrierWait(ExecutionState& state, const SyncCall& call);
  StepResult ExecYield(ExecutionState& state, const SyncCall& call);
  StepResult ExecAtomicLoad(ExecutionState& state, const SyncCall& call);
  StepResult ExecAtomicStore(ExecutionState& state, const SyncCall& call);
  StepResult ExecAtomicRmw(ExecutionState& state, const SyncCall& call);
  StepResult ExecAtomicFence(ExecutionState& state, const SyncCall& call);

  struct Options {
    // Concrete mode when set: inputs come from the provider, no forking.
    InputProvider* input_provider = nullptr;
    SchedulePolicy* policy = nullptr;        // May be null (no schedule forks).
    EngineServices* services = nullptr;      // Required when policy forks.
    RaceDetector* race_detector = nullptr;   // Enables §4.2 lockset tracking.
    // Branch-edge filter for the paper's critical-edge pruning: return false
    // to forbid following edge (branch site -> target block).
    std::function<bool(const ExecutionState&, ir::InstRef, uint32_t)> branch_filter;
    // Upper bound for symbolic-buffer helpers (getenv and friends).
    uint32_t env_string_len = 8;
    // Model TSO store-buffer reordering: relaxed atomic stores park in a
    // per-thread buffer and drain points fork extra schedule variants.
    // Off: every atomic store writes through in program order (the
    // --no-store-buffer ablation). Drain forks only ever fire in symbolic
    // mode; concrete playback applies the recorded flushes instead.
    bool store_buffer = true;
  };

  Interpreter(const ir::Module* module, solver::ConstraintSolver* solver,
              Options options);

  // Builds the initial state: one thread running `entry` (usually "main").
  StatePtr MakeInitialState(uint32_t entry_func, uint64_t state_id) const;

  // Executes one instruction of `state`'s current thread (or resolves
  // blocking/scheduling if it cannot run).
  StepResult Step(ExecutionState& state);

  const ir::Module& module() const { return *module_; }

  // Hands out process-unique state ids (used for branch forks here and for
  // schedule forks in the engine).
  uint64_t AllocStateId() {
    uint64_t id = next_state_id_;
    next_state_id_ += state_id_stride_;
    return id;
  }

  // Search workers: worker w of N allocates ids w+1, w+1+N, w+1+2N, … so
  // ids stay unique across workers even when states migrate between
  // frontiers. One worker (first=1, stride=1) keeps the default sequence.
  void ConfigureStateIds(uint64_t first, uint64_t stride) {
    next_state_id_ = first;
    state_id_stride_ = stride;
  }

  // Wired by the Engine at construction so schedule policies can fork.
  void set_services(EngineServices* services) { options_.services = services; }

  struct Stats {
    uint64_t instructions = 0;
    uint64_t branch_forks = 0;
    uint64_t concretizations = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // --- Value plumbing ---
  solver::ExprRef EvalValue(const ExecutionState& state, const StackFrame& frame,
                            const ir::Value& v) const;
  static uint32_t TypeWidth(ir::Type t) { return ir::BitWidth(t); }

  // --- Memory access helpers (set `bug` and return false on failure) ---
  bool ConcretizeU64(ExecutionState& state, const solver::ExprRef& e, uint64_t* out);
  bool CheckAccess(ExecutionState& state, uint64_t ptr, uint32_t bytes, bool is_write,
                   ir::InstRef site, BugInfo* bug);
  bool LoadBytes(ExecutionState& state, uint64_t ptr, uint32_t bytes,
                 solver::ExprRef* out, ir::InstRef site, BugInfo* bug);
  bool StoreBytes(ExecutionState& state, uint64_t ptr, const solver::ExprRef& value,
                  ir::InstRef site, BugInfo* bug);
  // Reads a NUL-terminated concrete string (concretizing symbolic bytes).
  bool ReadCString(ExecutionState& state, uint64_t ptr, std::string* out,
                   ir::InstRef site, BugInfo* bug);

  // --- Inputs ---
  solver::ExprRef MakeInput(ExecutionState& state, const std::string& base,
                            uint32_t width);

  // --- Scheduling ---
  // Switches to thread `tid`, recording a schedule event.
  void SwitchTo(ExecutionState& state, uint32_t tid);
  // Picks and switches to a runnable thread; returns false if none exists.
  bool ScheduleNext(ExecutionState& state);
  // Detects a circular wait in the resource-allocation graph [22] spanning
  // mutexes and rwlocks (a blocked writer waits on every current holder, so
  // any directed cycle is a genuine deadlock). Semaphore and barrier waits
  // have no owner and contribute no edges; those deadlocks surface through
  // the global no-runnable-thread check instead.
  bool HasSyncCycle(const ExecutionState& state) const;
  BugInfo MakeDeadlockBug(const ExecutionState& state) const;

  // --- Instruction execution ---
  StepResult ExecInstruction(ExecutionState& state, const ir::Instruction& inst,
                             ir::InstRef site);
  StepResult ExecCondBr(ExecutionState& state, const ir::Instruction& inst,
                        ir::InstRef site);
  StepResult ExecCall(ExecutionState& state, const ir::Instruction& inst,
                      ir::InstRef site);
  StepResult ExecRet(ExecutionState& state, const ir::Instruction& inst);
  StepResult ExecExternal(ExecutionState& state, const ir::Instruction& inst,
                          uint32_t callee_index, ir::InstRef site);
  // Shared tail for every blocking sync path: with the thread already
  // marked blocked, run the cycle detector and schedule the next runnable
  // thread (reporting a deadlock when none exists).
  StepResult BlockCurrentThread(ExecutionState& state);
  void PushFrame(ExecutionState& state, uint32_t func,
                 const std::vector<solver::ExprRef>& args, int32_t ret_reg);
  void PopFrame(ExecutionState& state, const solver::ExprRef& ret_value);
  // Thread's bottom frame returned / thread exited.
  StepResult FinishThread(ExecutionState& state);

  void AdvancePc(ExecutionState& state) { ++state.CurrentFrame().inst; }

  // Fires policy.BeforeSyncOp if the instruction is a preemption point.
  void MaybePreemptionPoint(ExecutionState& state, const ir::Instruction& inst,
                            ir::InstRef site);

  // --- Store-buffer helpers (see "C11 atomics" in interpreter.cc) ---
  // Forks one schedule variant per eligible buffered store; each child
  // commits that entry with the pc unchanged so the atomic op re-executes.
  void MaybeDrainForks(ExecutionState& state, StepResult* result);
  // 4-byte memory access bypassing the race detector (atomics synchronize,
  // they do not race) but waking dependent sleep-set entries.
  solver::ExprRef AtomicReadMem(ExecutionState& state, uint64_t addr);
  void AtomicWriteMem(ExecutionState& state, uint64_t addr,
                      const solver::ExprRef& value);

  // LookupExternal(Func(i).name), memoized per function index: the
  // string-keyed lookup sits on the per-instruction hot path (every
  // external call and preemption point resolves it).
  ExternalId ExternalIdOf(uint32_t func_index);

  const ir::Module* module_;
  solver::ConstraintSolver* solver_;
  Options options_;
  Stats stats_;
  uint64_t next_state_id_ = 1;
  uint64_t state_id_stride_ = 1;
  std::vector<uint8_t> external_ids_;  // Lazily filled by ExternalIdOf.
};

// Encodes function index `f` as a runtime function-pointer value.
constexpr uint32_t kFunctionObjectBase = 0x40000000u;
constexpr uint64_t FunctionPointer(uint32_t func_index) {
  return MakePointer(kFunctionObjectBase + func_index, 0);
}
constexpr bool IsFunctionPointer(uint64_t ptr) {
  return PointerObject(ptr) >= kFunctionObjectBase && PointerOffset(ptr) == 0;
}
constexpr uint32_t FunctionIndexOf(uint64_t ptr) {
  return PointerObject(ptr) - kFunctionObjectBase;
}

}  // namespace esd::vm

#endif  // ESD_SRC_VM_INTERPRETER_H_
