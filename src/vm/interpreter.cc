#include "src/vm/interpreter.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <sstream>

namespace esd::vm {

std::optional<SyncOp::Kind> SyncKindOf(ExternalId id) {
  switch (id) {
    case ExternalId::kMutexLock:
    case ExternalId::kMutexTryLock:
      return SyncOp::Kind::kMutexLock;
    case ExternalId::kMutexUnlock:
      return SyncOp::Kind::kMutexUnlock;
    case ExternalId::kCondWait:
      return SyncOp::Kind::kCondWait;
    case ExternalId::kCondSignal:
      return SyncOp::Kind::kCondSignal;
    case ExternalId::kCondBroadcast:
      return SyncOp::Kind::kCondBroadcast;
    case ExternalId::kThreadCreate:
      return SyncOp::Kind::kThreadCreate;
    case ExternalId::kThreadJoin:
      return SyncOp::Kind::kThreadJoin;
    case ExternalId::kRwRdLock:
    case ExternalId::kRwTryRdLock:
      return SyncOp::Kind::kRwRdLock;
    case ExternalId::kRwWrLock:
    case ExternalId::kRwTryWrLock:
      return SyncOp::Kind::kRwWrLock;
    case ExternalId::kRwUnlock:
      return SyncOp::Kind::kRwUnlock;
    case ExternalId::kSemWait:
    case ExternalId::kSemTryWait:
      return SyncOp::Kind::kSemWait;
    case ExternalId::kSemPost:
      return SyncOp::Kind::kSemPost;
    case ExternalId::kBarrierWait:
      return SyncOp::Kind::kBarrierWait;
    case ExternalId::kYield:
      return SyncOp::Kind::kYield;
    case ExternalId::kAtomicLoad:
      return SyncOp::Kind::kAtomicLoad;
    case ExternalId::kAtomicStore:
      return SyncOp::Kind::kAtomicStore;
    case ExternalId::kAtomicExchange:
    case ExternalId::kAtomicFetchAdd:
    case ExternalId::kAtomicCas:
      return SyncOp::Kind::kAtomicRmw;
    case ExternalId::kAtomicFence:
      return SyncOp::Kind::kAtomicFence;
    default:
      return std::nullopt;
  }
}

ExternalId LookupExternal(const std::string& name) {
  static const std::map<std::string, ExternalId> kMap = {
      {"getchar", ExternalId::kGetchar},
      {"getenv", ExternalId::kGetenv},
      {"esd_input_i32", ExternalId::kInputI32},
      {"esd_input_i64", ExternalId::kInputI64},
      {"esd_input_bytes", ExternalId::kInputBytes},
      {"malloc", ExternalId::kMalloc},
      {"free", ExternalId::kFree},
      {"memset", ExternalId::kMemset},
      {"memcpy", ExternalId::kMemcpy},
      {"strlen", ExternalId::kStrlen},
      {"print_str", ExternalId::kPrintStr},
      {"print_i64", ExternalId::kPrintI64},
      {"exit", ExternalId::kExit},
      {"abort", ExternalId::kAbort},
      {"esd_assert", ExternalId::kAssert},
      {"thread_create", ExternalId::kThreadCreate},
      {"thread_join", ExternalId::kThreadJoin},
      {"mutex_init", ExternalId::kMutexInit},
      {"mutex_lock", ExternalId::kMutexLock},
      {"mutex_trylock", ExternalId::kMutexTryLock},
      {"mutex_unlock", ExternalId::kMutexUnlock},
      {"cond_init", ExternalId::kCondInit},
      {"cond_wait", ExternalId::kCondWait},
      {"cond_signal", ExternalId::kCondSignal},
      {"cond_broadcast", ExternalId::kCondBroadcast},
      {"rwlock_init", ExternalId::kRwLockInit},
      {"rwlock_rdlock", ExternalId::kRwRdLock},
      {"rwlock_tryrdlock", ExternalId::kRwTryRdLock},
      {"rwlock_wrlock", ExternalId::kRwWrLock},
      {"rwlock_trywrlock", ExternalId::kRwTryWrLock},
      {"rwlock_unlock", ExternalId::kRwUnlock},
      {"sem_init", ExternalId::kSemInit},
      {"sem_wait", ExternalId::kSemWait},
      {"sem_trywait", ExternalId::kSemTryWait},
      {"sem_post", ExternalId::kSemPost},
      {"barrier_init", ExternalId::kBarrierInit},
      {"barrier_wait", ExternalId::kBarrierWait},
      {"yield", ExternalId::kYield},
      {"sleep_ms", ExternalId::kYield},
      {"atomic_load", ExternalId::kAtomicLoad},
      {"atomic_store", ExternalId::kAtomicStore},
      {"atomic_exchange", ExternalId::kAtomicExchange},
      {"atomic_fetch_add", ExternalId::kAtomicFetchAdd},
      {"atomic_cas", ExternalId::kAtomicCas},
      {"atomic_fence", ExternalId::kAtomicFence},
  };
  auto it = kMap.find(name);
  return it == kMap.end() ? ExternalId::kUnknown : it->second;
}

ExternalId Interpreter::ExternalIdOf(uint32_t func_index) {
  constexpr uint8_t kUnresolved = 0xff;
  static_assert(static_cast<uint8_t>(ExternalId::kUnknown) < kUnresolved);
  if (external_ids_.empty()) {
    external_ids_.assign(module_->NumFunctions(), kUnresolved);
  }
  uint8_t& slot = external_ids_[func_index];
  if (slot == kUnresolved) {
    slot = static_cast<uint8_t>(LookupExternal(module_->Func(func_index).name));
  }
  return static_cast<ExternalId>(slot);
}

namespace {

using solver::ExprRef;

bool IsSyncExternal(ExternalId id) { return SyncKindOf(id).has_value(); }

// The sync-dispatch table. Includes the *_init calls (object bookkeeping
// belongs with its primitive) even though they are not preemption points.
const Interpreter::SyncHandler* FindSyncHandler(ExternalId id) {
  static const std::map<ExternalId, Interpreter::SyncHandler> kTable = {
      {ExternalId::kThreadCreate, &Interpreter::ExecThreadCreate},
      {ExternalId::kThreadJoin, &Interpreter::ExecThreadJoin},
      {ExternalId::kMutexInit, &Interpreter::ExecSyncObjectInit},
      {ExternalId::kCondInit, &Interpreter::ExecSyncObjectInit},
      {ExternalId::kRwLockInit, &Interpreter::ExecSyncObjectInit},
      {ExternalId::kSemInit, &Interpreter::ExecSyncObjectInit},
      {ExternalId::kBarrierInit, &Interpreter::ExecSyncObjectInit},
      {ExternalId::kMutexLock, &Interpreter::ExecMutexLock},
      {ExternalId::kMutexTryLock, &Interpreter::ExecMutexLock},
      {ExternalId::kMutexUnlock, &Interpreter::ExecMutexUnlock},
      {ExternalId::kCondWait, &Interpreter::ExecCondWait},
      {ExternalId::kCondSignal, &Interpreter::ExecCondWake},
      {ExternalId::kCondBroadcast, &Interpreter::ExecCondWake},
      {ExternalId::kRwRdLock, &Interpreter::ExecRwLock},
      {ExternalId::kRwTryRdLock, &Interpreter::ExecRwLock},
      {ExternalId::kRwWrLock, &Interpreter::ExecRwLock},
      {ExternalId::kRwTryWrLock, &Interpreter::ExecRwLock},
      {ExternalId::kRwUnlock, &Interpreter::ExecRwUnlock},
      {ExternalId::kSemWait, &Interpreter::ExecSemWait},
      {ExternalId::kSemTryWait, &Interpreter::ExecSemWait},
      {ExternalId::kSemPost, &Interpreter::ExecSemPost},
      {ExternalId::kBarrierWait, &Interpreter::ExecBarrierWait},
      {ExternalId::kYield, &Interpreter::ExecYield},
      {ExternalId::kAtomicLoad, &Interpreter::ExecAtomicLoad},
      {ExternalId::kAtomicStore, &Interpreter::ExecAtomicStore},
      {ExternalId::kAtomicExchange, &Interpreter::ExecAtomicRmw},
      {ExternalId::kAtomicFetchAdd, &Interpreter::ExecAtomicRmw},
      {ExternalId::kAtomicCas, &Interpreter::ExecAtomicRmw},
      {ExternalId::kAtomicFence, &Interpreter::ExecAtomicFence},
  };
  auto it = kTable.find(id);
  return it == kTable.end() ? nullptr : &it->second;
}

// Minimum argument count each external requires. A module may declare its
// own extern signatures (bypassing the canonical preamble), and the
// verifier only checks calls against the module's declarations — so a
// short call must fail as a malformed-module error here rather than read
// args[] out of bounds.
size_t MinArgsOf(ExternalId id) {
  switch (id) {
    case ExternalId::kGetchar:
    case ExternalId::kExit:
    case ExternalId::kAbort:
    case ExternalId::kYield:
    case ExternalId::kUnknown:
      return 0;
    case ExternalId::kInputBytes:
    case ExternalId::kMemset:
    case ExternalId::kMemcpy:
    case ExternalId::kAtomicStore:
    case ExternalId::kAtomicExchange:
    case ExternalId::kAtomicFetchAdd:
      return 3;
    case ExternalId::kAtomicCas:
      return 4;
    case ExternalId::kCondWait:
    case ExternalId::kSemInit:
    case ExternalId::kBarrierInit:
    case ExternalId::kAtomicLoad:
      return 2;
    default:
      return 1;
  }
}

BugInfo MakeBug(BugInfo::Kind kind, ir::InstRef pc, uint32_t tid, uint64_t addr,
                std::string message) {
  BugInfo bug;
  bug.kind = kind;
  bug.pc = pc;
  bug.tid = tid;
  bug.fault_addr = addr;
  bug.message = std::move(message);
  return bug;
}

}  // namespace

std::string_view BugKindName(BugInfo::Kind kind) {
  switch (kind) {
    case BugInfo::Kind::kNone:
      return "none";
    case BugInfo::Kind::kNullDeref:
      return "null-deref";
    case BugInfo::Kind::kOutOfBounds:
      return "out-of-bounds";
    case BugInfo::Kind::kUseAfterFree:
      return "use-after-free";
    case BugInfo::Kind::kInvalidFree:
      return "invalid-free";
    case BugInfo::Kind::kDoubleFree:
      return "double-free";
    case BugInfo::Kind::kAssertFail:
      return "assert-fail";
    case BugInfo::Kind::kDivByZero:
      return "div-by-zero";
    case BugInfo::Kind::kDeadlock:
      return "deadlock";
    case BugInfo::Kind::kAbort:
      return "abort";
    case BugInfo::Kind::kUnreachable:
      return "unreachable";
    case BugInfo::Kind::kInvalidSync:
      return "invalid-sync";
    case BugInfo::Kind::kInternalError:
      return "internal-error";
  }
  return "?";
}

Interpreter::Interpreter(const ir::Module* module, solver::ConstraintSolver* solver,
                         Options options)
    : module_(module), solver_(solver), options_(std::move(options)) {}

StatePtr Interpreter::MakeInitialState(uint32_t entry_func, uint64_t state_id) const {
  auto state = std::make_shared<ExecutionState>();
  state->id = state_id;
  // Globals are allocated first, in order, so global index g lives in memory
  // object g+1 (see EvalValue's kGlobalRef case).
  for (uint32_t g = 0; g < module_->NumGlobals(); ++g) {
    const ir::Global& gl = module_->GlobalAt(g);
    uint32_t obj = state->mem.AllocateInit(gl.size, ObjectKind::kGlobal, gl.name,
                                           gl.init);
    (void)obj;
    assert(obj == g + 1);
  }
  Thread main_thread;
  main_thread.id = 0;
  const ir::Function& entry = module_->Func(entry_func);
  StackFrame frame;
  frame.func = entry_func;
  frame.regs.assign(entry.num_regs, nullptr);
  // Entry parameters default to zero (workloads use input externals instead).
  for (size_t i = 0; i < entry.params.size(); ++i) {
    frame.regs[i] = solver::MakeConst(TypeWidth(entry.params[i]), 0);
  }
  main_thread.frames.push_back(std::move(frame));
  state->threads.push_back(std::move(main_thread));
  state->current_tid = 0;
  return state;
}

ExprRef Interpreter::EvalValue(const ExecutionState& /*state*/, const StackFrame& frame,
                               const ir::Value& v) const {
  switch (v.kind) {
    case ir::Value::Kind::kReg:
      assert(v.index < frame.regs.size() && frame.regs[v.index] != nullptr);
      return frame.regs[v.index];
    case ir::Value::Kind::kConst:
      if (v.type == ir::Type::kVoid) {
        return solver::MakeConst(1, 0);
      }
      return solver::MakeConst(TypeWidth(v.type), v.imm);
    case ir::Value::Kind::kFuncRef:
      return solver::MakeConst(64, FunctionPointer(v.index));
    case ir::Value::Kind::kGlobalRef:
      return solver::MakeConst(64, MakePointer(v.index + 1, 0));
    case ir::Value::Kind::kNone:
      break;
  }
  assert(false && "invalid operand");
  return solver::MakeConst(1, 0);
}

bool Interpreter::ConcretizeU64(ExecutionState& state, const ExprRef& e,
                                uint64_t* out) {
  if (e->IsConst()) {
    *out = e->aux();
    return true;
  }
  ++stats_.concretizations;
  solver::Model model;
  if (!solver_->IsSatisfiable(state.constraints, &model)) {
    return false;  // Infeasible path; caller terminates the state.
  }
  uint64_t value = solver::EvalExpr(e, model.values);
  state.AddConstraint(solver::MakeEq(e, solver::MakeConst(e->width(), value)));
  *out = value;
  return true;
}

bool Interpreter::CheckAccess(ExecutionState& state, uint64_t ptr, uint32_t bytes,
                              bool is_write, ir::InstRef site, BugInfo* bug) {
  uint32_t obj_id = PointerObject(ptr);
  uint32_t offset = PointerOffset(ptr);
  if (obj_id == 0) {
    *bug = MakeBug(BugInfo::Kind::kNullDeref, site, state.current_tid, ptr,
                   "dereference of null/invalid pointer");
    return false;
  }
  const MemoryObject* obj = state.mem.Find(obj_id);
  if (obj == nullptr) {
    *bug = MakeBug(BugInfo::Kind::kNullDeref, site, state.current_tid, ptr,
                   "dereference of dangling object id");
    return false;
  }
  if (obj->freed) {
    *bug = MakeBug(BugInfo::Kind::kUseAfterFree, site, state.current_tid, ptr,
                   "access to freed object '" + obj->name + "'");
    return false;
  }
  if (offset + bytes > obj->size) {
    *bug = MakeBug(BugInfo::Kind::kOutOfBounds, site, state.current_tid, ptr,
                   "out-of-bounds " + std::string(is_write ? "write" : "read") +
                       " of object '" + obj->name + "'");
    return false;
  }
  return true;
}

bool Interpreter::LoadBytes(ExecutionState& state, uint64_t ptr, uint32_t bytes,
                            ExprRef* out, ir::InstRef site, BugInfo* bug) {
  if (!CheckAccess(state, ptr, bytes, /*is_write=*/false, site, bug)) {
    return false;
  }
  const MemoryObject* obj = state.mem.Find(PointerObject(ptr));
  uint32_t offset = PointerOffset(ptr);
  // Little-endian: byte at offset is least significant.
  ExprRef value = obj->ByteAt(offset);
  for (uint32_t i = 1; i < bytes; ++i) {
    value = solver::MakeConcat(obj->ByteAt(offset + i), value);
  }
  *out = value;
  // Even unflagged reads can interfere with a sleeping racy store.
  state.SleepSetWakeAccess(MakePointer(PointerObject(ptr), offset),
                           /*is_write=*/false);
  if (options_.race_detector != nullptr) {
    auto held = RaceDetector::HeldLocksForAccess(state, state.current_tid,
                                                 /*is_write=*/false);
    options_.race_detector->OnAccess(MakePointer(PointerObject(ptr), offset),
                                     state.current_tid, /*is_write=*/false, site,
                                     held);
  }
  return true;
}

bool Interpreter::StoreBytes(ExecutionState& state, uint64_t ptr, const ExprRef& value,
                             ir::InstRef site, BugInfo* bug) {
  uint32_t bytes = value->width() / 8;
  if (value->width() == 1) {
    bytes = 1;
  }
  if (!CheckAccess(state, ptr, bytes, /*is_write=*/true, site, bug)) {
    return false;
  }
  MemoryObject* obj = state.mem.FindWritable(PointerObject(ptr));
  uint32_t offset = PointerOffset(ptr);
  ExprRef wide = value->width() == 1 ? solver::MakeZExt(value, 8) : value;
  for (uint32_t i = 0; i < bytes; ++i) {
    // WriteByte keeps the address space's incremental content hash current.
    state.mem.WriteByte(obj, offset + i, solver::MakeExtract(wide, i * 8, 8));
  }
  // Even unflagged writes can interfere with a sleeping racy access.
  state.SleepSetWakeAccess(MakePointer(PointerObject(ptr), offset),
                           /*is_write=*/true);
  if (options_.race_detector != nullptr) {
    auto held = RaceDetector::HeldLocksForAccess(state, state.current_tid,
                                                 /*is_write=*/true);
    options_.race_detector->OnAccess(MakePointer(PointerObject(ptr), offset),
                                     state.current_tid, /*is_write=*/true, site, held);
  }
  return true;
}

bool Interpreter::ReadCString(ExecutionState& state, uint64_t ptr, std::string* out,
                              ir::InstRef site, BugInfo* bug) {
  out->clear();
  for (uint32_t i = 0;; ++i) {
    uint64_t addr = ptr + i;
    ExprRef byte;
    if (!LoadBytes(state, addr, 1, &byte, site, bug)) {
      return false;
    }
    uint64_t value;
    if (!ConcretizeU64(state, byte, &value)) {
      *bug = MakeBug(BugInfo::Kind::kInternalError, site, state.current_tid, addr,
                     "infeasible constraints while reading string");
      return false;
    }
    if (value == 0) {
      return true;
    }
    out->push_back(static_cast<char>(value));
    if (out->size() > 4096) {
      *bug = MakeBug(BugInfo::Kind::kOutOfBounds, site, state.current_tid, ptr,
                     "unterminated string");
      return false;
    }
  }
}

ExprRef Interpreter::MakeInput(ExecutionState& state, const std::string& base,
                               uint32_t width) {
  if (options_.input_provider == nullptr) {
    return state.NewInput(base, width);
  }
  // Concrete mode: consume the same name sequence the symbolic run produced
  // so the execution file's input names resolve.
  uint64_t var_id = state.next_var_id++;
  std::string unique = base + "#" + std::to_string(var_id);
  uint64_t value = options_.input_provider->GetValue(unique, width);
  ExprRef c = solver::MakeConst(width, value);
  state.inputs.emplace_back(unique, c);
  return c;
}

void Interpreter::SwitchTo(ExecutionState& state, uint32_t tid) {
  if (state.current_tid == tid) {
    return;
  }
  state.current_tid = tid;
  state.RecordEvent(SchedEvent::Kind::kSwitch, tid, 0, state.CurrentThread().Pc());
}

bool Interpreter::ScheduleNext(ExecutionState& state) {
  if (options_.policy != nullptr) {
    if (auto pick = options_.policy->PickNextThread(state)) {
      Thread* t = state.FindThread(*pick);
      if (t != nullptr && t->status == ThreadStatus::kRunnable) {
        SwitchTo(state, *pick);
        return true;
      }
    }
  }
  // Round-robin starting after the current thread.
  size_t n = state.threads.size();
  for (size_t i = 1; i <= n; ++i) {
    const Thread& t = state.threads[(state.current_tid + i) % n];
    if (t.status == ThreadStatus::kRunnable) {
      SwitchTo(state, t.id);
      return true;
    }
  }
  return false;
}

bool Interpreter::HasSyncCycle(const ExecutionState& state) const {
  // Wait-for edges: a blocked thread -> every thread that must release the
  // contended object before it can proceed. A mutex waiter has one such
  // edge (the holder); an rwlock write waiter needs the writer *and* every
  // other reader gone, so any single cycle through one of those edges is
  // already a genuine deadlock (all edges are conjunctive). Edges live in
  // one flat list scanned per node: the graph has at most a handful of
  // threads, and this runs on every blocking operation.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const Thread& t : state.threads) {
    if (t.status == ThreadStatus::kBlockedMutex) {
      auto it = state.mutexes().find(t.wait_mutex);
      if (it != state.mutexes().end() && it->second.locked) {
        edges.emplace_back(t.id, it->second.holder);
      }
    } else if (t.status == ThreadStatus::kBlockedRwRead ||
               t.status == ThreadStatus::kBlockedRwWrite) {
      auto it = state.rwlocks().find(t.wait_sync);
      if (it == state.rwlocks().end()) {
        continue;
      }
      if (it->second.writer != ir::kInvalidIndex) {
        edges.emplace_back(t.id, it->second.writer);
      }
      if (t.status == ThreadStatus::kBlockedRwWrite) {
        for (uint32_t reader : it->second.readers) {
          if (reader != t.id) {
            edges.emplace_back(t.id, reader);
          }
        }
      }
    }
    // Semaphore and barrier waits have no owner: no edges.
  }
  if (edges.empty()) {
    return false;
  }
  // DFS cycle detection over the (multi-edge) wait-for graph. Colors keyed
  // by tid in a flat sorted list of the tids appearing in any edge.
  std::vector<uint32_t> tids;
  for (const auto& [from, to] : edges) {
    tids.push_back(from);
    tids.push_back(to);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  std::vector<uint8_t> color(tids.size(), 0);  // 0 unvisited, 1 on stack, 2 done.
  struct Dfs {
    const std::vector<std::pair<uint32_t, uint32_t>>& edges;
    const std::vector<uint32_t>& tids;
    std::vector<uint8_t>& color;
    bool Run(size_t u) {
      color[u] = 1;
      for (const auto& [from, to] : edges) {
        if (from != tids[u]) {
          continue;
        }
        size_t v = static_cast<size_t>(
            std::lower_bound(tids.begin(), tids.end(), to) - tids.begin());
        if (color[v] == 1 || (color[v] == 0 && Run(v))) {
          return true;
        }
      }
      color[u] = 2;
      return false;
    }
  };
  Dfs dfs{edges, tids, color};
  for (size_t u = 0; u < tids.size(); ++u) {
    if (color[u] == 0 && dfs.Run(u)) {
      return true;
    }
  }
  return false;
}

BugInfo Interpreter::MakeDeadlockBug(const ExecutionState& state) const {
  std::ostringstream os;
  os << "deadlock:";
  for (const Thread& t : state.threads) {
    os << " T" << t.id << "=";
    switch (t.status) {
      case ThreadStatus::kBlockedMutex:
        os << "mutex@" << t.wait_mutex;
        break;
      case ThreadStatus::kBlockedCond:
        os << "cond@" << t.wait_cond;
        break;
      case ThreadStatus::kBlockedJoin:
        os << "join(T" << t.join_tid << ")";
        break;
      case ThreadStatus::kBlockedRwRead:
        os << "rwlock-rd@" << t.wait_sync;
        break;
      case ThreadStatus::kBlockedRwWrite:
        os << "rwlock-wr@" << t.wait_sync;
        break;
      case ThreadStatus::kBlockedSem:
        os << "sem@" << t.wait_sync;
        break;
      case ThreadStatus::kBlockedBarrier:
        os << "barrier@" << t.wait_sync;
        break;
      case ThreadStatus::kExited:
        os << "exited";
        break;
      case ThreadStatus::kRunnable:
        os << "runnable";
        break;
    }
  }
  BugInfo bug = MakeBug(BugInfo::Kind::kDeadlock, {}, state.current_tid, 0, os.str());
  // Use the first lock-blocked thread's pc as the representative location
  // (mutex waiters first to keep legacy report shapes stable, then rwlock
  // waiters — both name the contended object in fault_addr).
  for (const Thread& t : state.threads) {
    if (t.status == ThreadStatus::kBlockedMutex) {
      bug.pc = t.Pc();
      bug.tid = t.id;
      bug.fault_addr = t.wait_mutex;
      return bug;
    }
  }
  for (const Thread& t : state.threads) {
    if (t.status == ThreadStatus::kBlockedRwRead ||
        t.status == ThreadStatus::kBlockedRwWrite ||
        t.status == ThreadStatus::kBlockedSem ||
        t.status == ThreadStatus::kBlockedBarrier) {
      bug.pc = t.Pc();
      bug.tid = t.id;
      bug.fault_addr = t.wait_sync;
      return bug;
    }
  }
  return bug;
}

void Interpreter::MaybePreemptionPoint(ExecutionState& state,
                                       const ir::Instruction& inst, ir::InstRef site) {
  if (options_.policy == nullptr || options_.services == nullptr) {
    return;
  }
  SyncOp op;
  op.site = site;
  if (inst.op == ir::Opcode::kLoad || inst.op == ir::Opcode::kStore) {
    if (!options_.policy->IsPreemptionAccess(state, site)) {
      return;
    }
    op.kind = inst.op == ir::Opcode::kLoad ? SyncOp::Kind::kRacyLoad
                                           : SyncOp::Kind::kRacyStore;
    const StackFrame& frame = state.CurrentThread().frames.back();
    ExprRef ptr = EvalValue(state, frame, inst.operands[inst.op == ir::Opcode::kLoad
                                                            ? 0
                                                            : 1]);
    if (ptr->IsConst()) {
      op.addr = ptr->aux();
    }
    options_.policy->BeforeSyncOp(*options_.services, state, op);
    return;
  }
  if (inst.op != ir::Opcode::kCall || inst.callee == ir::kInvalidIndex) {
    return;
  }
  const ir::Function& callee = module_->Func(inst.callee);
  if (!callee.is_external) {
    return;
  }
  std::optional<SyncOp::Kind> kind = SyncKindOf(ExternalIdOf(inst.callee));
  if (!kind.has_value()) {
    return;
  }
  op.kind = *kind;
  if (!inst.operands.empty()) {
    const StackFrame& frame = state.CurrentThread().frames.back();
    ExprRef a0 = EvalValue(state, frame, inst.operands[0]);
    if (a0->IsConst()) {
      op.addr = a0->aux();
    }
  }
  options_.policy->BeforeSyncOp(*options_.services, state, op);
}

StepResult Interpreter::Step(ExecutionState& state) {
  if (options_.policy != nullptr) {
    // Replay policies apply recorded store-buffer flushes here, before the
    // forced switch, so a flush due at this step lands no matter which
    // thread runs next.
    options_.policy->BeforeStep(state);
    if (auto forced = options_.policy->ForceSwitch(state)) {
      Thread* t = state.FindThread(*forced);
      if (t != nullptr && t->status == ThreadStatus::kRunnable) {
        SwitchTo(state, *forced);
      }
    }
  }
  if (state.CurrentThread().status != ThreadStatus::kRunnable) {
    StepResult result;
    if (!ScheduleNext(state)) {
      result.state_done = true;
      if (!state.AllExited()) {
        result.bug = MakeDeadlockBug(state);
      }
      return result;
    }
    // Fall through: execute one instruction of the newly scheduled thread.
  }
  Thread& thread = state.CurrentThread();
  assert(!thread.frames.empty());
  StackFrame& frame = thread.frames.back();
  ir::InstRef site{frame.func, frame.block, frame.inst};
  const ir::Instruction* inst = module_->InstAt(site);
  if (inst == nullptr) {
    StepResult result;
    result.state_done = true;
    result.bug = MakeBug(BugInfo::Kind::kInternalError, site, thread.id, 0,
                         "pc out of range");
    return result;
  }
  MaybePreemptionPoint(state, *inst, site);
  ++stats_.instructions;
  ++state.steps;
  // StepResult::sync_point is set by ExecExternal for synchronization calls
  // (including ones reached through an indirect call).
  return ExecInstruction(state, *inst, site);
}

StepResult Interpreter::ExecInstruction(ExecutionState& state,
                                        const ir::Instruction& inst, ir::InstRef site) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  StackFrame& frame = thread.frames.back();

  auto set_result = [&](const ExprRef& v) {
    if (inst.result >= 0) {
      frame.regs[static_cast<size_t>(inst.result)] = v;
    }
  };

  switch (inst.op) {
    case ir::Opcode::kAdd:
    case ir::Opcode::kSub:
    case ir::Opcode::kMul:
    case ir::Opcode::kAnd:
    case ir::Opcode::kOr:
    case ir::Opcode::kXor:
    case ir::Opcode::kShl:
    case ir::Opcode::kLShr:
    case ir::Opcode::kAShr: {
      ExprRef a = EvalValue(state, frame, inst.operands[0]);
      ExprRef b = EvalValue(state, frame, inst.operands[1]);
      switch (inst.op) {
        case ir::Opcode::kAdd: set_result(solver::MakeAdd(a, b)); break;
        case ir::Opcode::kSub: set_result(solver::MakeSub(a, b)); break;
        case ir::Opcode::kMul: set_result(solver::MakeMul(a, b)); break;
        case ir::Opcode::kAnd: set_result(solver::MakeAnd(a, b)); break;
        case ir::Opcode::kOr: set_result(solver::MakeOr(a, b)); break;
        case ir::Opcode::kXor: set_result(solver::MakeXor(a, b)); break;
        case ir::Opcode::kShl: set_result(solver::MakeShl(a, b)); break;
        case ir::Opcode::kLShr: set_result(solver::MakeLShr(a, b)); break;
        default: set_result(solver::MakeAShr(a, b)); break;
      }
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kUDiv:
    case ir::Opcode::kSDiv:
    case ir::Opcode::kURem:
    case ir::Opcode::kSRem: {
      ExprRef a = EvalValue(state, frame, inst.operands[0]);
      ExprRef b = EvalValue(state, frame, inst.operands[1]);
      if (b->IsConstValue(0)) {
        result.state_done = true;
        result.bug = MakeBug(BugInfo::Kind::kDivByZero, site, thread.id, 0,
                             "division by zero");
        return result;
      }
      if (!b->IsConst()) {
        // Constrain the divisor away from zero; if that is infeasible the
        // division faults on every input reaching here.
        ExprRef nonzero = solver::MakeNe(b, solver::MakeConst(b->width(), 0));
        if (!solver_->MayBeTrue(state.constraints, nonzero)) {
          result.state_done = true;
          result.bug = MakeBug(BugInfo::Kind::kDivByZero, site, thread.id, 0,
                               "division by zero (symbolic divisor)");
          return result;
        }
        state.AddConstraint(nonzero);
      }
      switch (inst.op) {
        case ir::Opcode::kUDiv: set_result(solver::MakeUDiv(a, b)); break;
        case ir::Opcode::kSDiv: set_result(solver::MakeSDiv(a, b)); break;
        case ir::Opcode::kURem: set_result(solver::MakeURem(a, b)); break;
        default: set_result(solver::MakeSRem(a, b)); break;
      }
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kICmp: {
      ExprRef a = EvalValue(state, frame, inst.operands[0]);
      ExprRef b = EvalValue(state, frame, inst.operands[1]);
      ExprRef r;
      switch (inst.pred) {
        case ir::CmpPred::kEq: r = solver::MakeEq(a, b); break;
        case ir::CmpPred::kNe: r = solver::MakeNe(a, b); break;
        case ir::CmpPred::kUlt: r = solver::MakeUlt(a, b); break;
        case ir::CmpPred::kUle: r = solver::MakeUle(a, b); break;
        case ir::CmpPred::kUgt: r = solver::MakeUlt(b, a); break;
        case ir::CmpPred::kUge: r = solver::MakeUle(b, a); break;
        case ir::CmpPred::kSlt: r = solver::MakeSlt(a, b); break;
        case ir::CmpPred::kSle: r = solver::MakeSle(a, b); break;
        case ir::CmpPred::kSgt: r = solver::MakeSlt(b, a); break;
        case ir::CmpPred::kSge: r = solver::MakeSle(b, a); break;
      }
      set_result(r);
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kNot:
      set_result(solver::MakeNot(EvalValue(state, frame, inst.operands[0])));
      AdvancePc(state);
      return result;
    case ir::Opcode::kZExt:
      set_result(solver::MakeZExt(EvalValue(state, frame, inst.operands[0]),
                                  TypeWidth(inst.type)));
      AdvancePc(state);
      return result;
    case ir::Opcode::kSExt:
      set_result(solver::MakeSExt(EvalValue(state, frame, inst.operands[0]),
                                  TypeWidth(inst.type)));
      AdvancePc(state);
      return result;
    case ir::Opcode::kTrunc:
      set_result(solver::MakeExtract(EvalValue(state, frame, inst.operands[0]), 0,
                                     TypeWidth(inst.type)));
      AdvancePc(state);
      return result;
    case ir::Opcode::kSelect: {
      ExprRef c = EvalValue(state, frame, inst.operands[0]);
      ExprRef a = EvalValue(state, frame, inst.operands[1]);
      ExprRef b = EvalValue(state, frame, inst.operands[2]);
      set_result(solver::MakeIte(c, a, b));
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kAlloca: {
      uint32_t obj = state.mem.Allocate(static_cast<uint32_t>(inst.imm),
                                        ObjectKind::kStack,
                                        module_->Func(frame.func).name + ":alloca");
      frame.allocas.push_back(obj);
      set_result(solver::MakeConst(64, MakePointer(obj, 0)));
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kLoad: {
      ExprRef ptr_expr = EvalValue(state, frame, inst.operands[0]);
      uint64_t ptr;
      if (!ConcretizeU64(state, ptr_expr, &ptr)) {
        result.state_done = true;  // Infeasible path.
        return result;
      }
      uint32_t bytes = TypeWidth(inst.type) / 8;
      if (bytes == 0) {
        bytes = 1;  // i1 loads one byte.
      }
      ExprRef value;
      if (!LoadBytes(state, ptr, bytes, &value, site, &result.bug)) {
        result.state_done = true;
        return result;
      }
      if (inst.type == ir::Type::kI1) {
        value = solver::MakeExtract(value, 0, 1);
      }
      set_result(value);
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kStore: {
      ExprRef value = EvalValue(state, frame, inst.operands[0]);
      ExprRef ptr_expr = EvalValue(state, frame, inst.operands[1]);
      uint64_t ptr;
      if (!ConcretizeU64(state, ptr_expr, &ptr)) {
        result.state_done = true;
        return result;
      }
      if (!StoreBytes(state, ptr, value, site, &result.bug)) {
        result.state_done = true;
        return result;
      }
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kGep: {
      ExprRef base = EvalValue(state, frame, inst.operands[0]);
      ExprRef index = EvalValue(state, frame, inst.operands[1]);
      ExprRef wide = index->width() < 64 ? solver::MakeZExt(index, 64) : index;
      ExprRef scaled = solver::MakeMul(wide, solver::MakeConst(64, inst.imm));
      set_result(solver::MakeAdd(base, scaled));
      AdvancePc(state);
      return result;
    }
    case ir::Opcode::kBr: {
      if (options_.branch_filter &&
          !options_.branch_filter(state, site, inst.succ_true)) {
        result.state_done = true;  // Pruned: cannot reach the goal.
        return result;
      }
      frame.block = inst.succ_true;
      frame.inst = 0;
      return result;
    }
    case ir::Opcode::kCondBr:
      return ExecCondBr(state, inst, site);
    case ir::Opcode::kCall:
      return ExecCall(state, inst, site);
    case ir::Opcode::kRet:
      return ExecRet(state, inst);
    case ir::Opcode::kUnreachable:
      result.state_done = true;
      result.bug = MakeBug(BugInfo::Kind::kUnreachable, site, thread.id, 0,
                           "reached 'unreachable'");
      return result;
  }
  result.state_done = true;
  result.bug = MakeBug(BugInfo::Kind::kInternalError, site, thread.id, 0,
                       "unhandled opcode");
  return result;
}

StepResult Interpreter::ExecCondBr(ExecutionState& state, const ir::Instruction& inst,
                                   ir::InstRef site) {
  StepResult result;
  StackFrame& frame = state.CurrentThread().frames.back();
  ExprRef cond = EvalValue(state, frame, inst.operands[0]);

  bool allow_true = !options_.branch_filter ||
                    options_.branch_filter(state, site, inst.succ_true);
  bool allow_false = !options_.branch_filter ||
                     options_.branch_filter(state, site, inst.succ_false);

  if (cond->IsConst()) {
    uint32_t target = cond->aux() ? inst.succ_true : inst.succ_false;
    bool allowed = cond->aux() ? allow_true : allow_false;
    if (!allowed) {
      result.state_done = true;
      return result;
    }
    frame.block = target;
    frame.inst = 0;
    return result;
  }

  bool feasible_true = allow_true && solver_->MayBeTrue(state.constraints, cond);
  bool feasible_false = allow_false && solver_->MayBeFalse(state.constraints, cond);

  if (feasible_true && feasible_false) {
    ++stats_.branch_forks;
    StatePtr child = state.Fork(AllocStateId());
    // Child takes the false edge.
    StackFrame& child_frame = child->CurrentThread().frames.back();
    child->AddConstraint(solver::MakeLogicalNot(cond));
    child_frame.block = inst.succ_false;
    child_frame.inst = 0;
    result.forks.push_back(std::move(child));
    // Parent takes the true edge. Both sides of a fork descend one level in
    // the execution tree (KLEE's process-tree semantics; RandomPath weights
    // depend on this).
    ++state.depth;
    state.AddConstraint(cond);
    frame.block = inst.succ_true;
    frame.inst = 0;
    return result;
  }
  if (feasible_true || feasible_false) {
    state.AddConstraint(feasible_true ? cond : solver::MakeLogicalNot(cond));
    frame.block = feasible_true ? inst.succ_true : inst.succ_false;
    frame.inst = 0;
    return result;
  }
  // Neither edge is feasible (or both are pruned): abandon the path.
  result.state_done = true;
  return result;
}

void Interpreter::PushFrame(ExecutionState& state, uint32_t func,
                            const std::vector<ExprRef>& args, int32_t ret_reg) {
  const ir::Function& callee = module_->Func(func);
  StackFrame frame;
  frame.func = func;
  frame.regs.assign(callee.num_regs, nullptr);
  for (size_t i = 0; i < args.size(); ++i) {
    frame.regs[i] = args[i];
  }
  frame.ret_reg = ret_reg;
  state.CurrentThread().frames.push_back(std::move(frame));
}

void Interpreter::PopFrame(ExecutionState& state, const ExprRef& ret_value) {
  Thread& thread = state.CurrentThread();
  StackFrame frame = std::move(thread.frames.back());
  thread.frames.pop_back();
  for (uint32_t obj : frame.allocas) {
    state.mem.Free(obj);
  }
  if (!thread.frames.empty() && frame.ret_reg >= 0 && ret_value != nullptr) {
    thread.frames.back().regs[static_cast<size_t>(frame.ret_reg)] = ret_value;
  }
}

StepResult Interpreter::FinishThread(ExecutionState& state) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  // A thread's buffered stores become globally visible no later than its
  // exit (flush events precede the exit event in the trace).
  state.DrainStoreBuffer(thread);
  thread.status = ThreadStatus::kExited;
  state.RecordEvent(SchedEvent::Kind::kThreadExit, thread.id, 0, {});
  // Wake joiners.
  for (Thread& t : state.threads) {
    if (t.status == ThreadStatus::kBlockedJoin && t.join_tid == thread.id) {
      t.status = ThreadStatus::kRunnable;
      t.join_tid = ir::kInvalidIndex;
    }
  }
  if (thread.id == 0) {
    // Returning from main exits the program.
    result.state_done = true;
    return result;
  }
  if (!ScheduleNext(state)) {
    result.state_done = true;
    if (!state.AllExited()) {
      result.bug = MakeDeadlockBug(state);
    }
  }
  return result;
}

StepResult Interpreter::ExecRet(ExecutionState& state, const ir::Instruction& inst) {
  Thread& thread = state.CurrentThread();
  ExprRef ret_value;
  if (!inst.operands.empty()) {
    ret_value = EvalValue(state, thread.frames.back(), inst.operands[0]);
  }
  PopFrame(state, ret_value);
  if (thread.frames.empty()) {
    return FinishThread(state);
  }
  return {};
}

StepResult Interpreter::ExecCall(ExecutionState& state, const ir::Instruction& inst,
                                 ir::InstRef site) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  StackFrame& frame = thread.frames.back();

  uint32_t callee_index = inst.callee;
  size_t first_arg = 0;
  if (callee_index == ir::kInvalidIndex) {
    // Indirect call: decode the function pointer.
    ExprRef fp = EvalValue(state, frame, inst.operands[0]);
    uint64_t ptr;
    if (!ConcretizeU64(state, fp, &ptr)) {
      result.state_done = true;
      return result;
    }
    if (ptr == 0) {
      result.state_done = true;
      result.bug = MakeBug(BugInfo::Kind::kNullDeref, site, thread.id, 0,
                           "indirect call through null function pointer");
      return result;
    }
    if (!IsFunctionPointer(ptr) || FunctionIndexOf(ptr) >= module_->NumFunctions()) {
      result.state_done = true;
      result.bug = MakeBug(BugInfo::Kind::kInternalError, site, thread.id, ptr,
                           "indirect call to a non-function address");
      return result;
    }
    callee_index = FunctionIndexOf(ptr);
    first_arg = 1;
  }

  const ir::Function& callee = module_->Func(callee_index);
  if (callee.is_external) {
    return ExecExternal(state, inst, callee_index, site);
  }

  std::vector<ExprRef> args;
  for (size_t i = first_arg; i < inst.operands.size(); ++i) {
    args.push_back(EvalValue(state, frame, inst.operands[i]));
  }
  AdvancePc(state);  // Return resumes after the call.
  PushFrame(state, callee_index, args, inst.result);
  return result;
}

StepResult Interpreter::ExecExternal(ExecutionState& state, const ir::Instruction& inst,
                                     uint32_t callee_index, ir::InstRef site) {
  StepResult result;
  const ir::Function& callee = module_->Func(callee_index);
  Thread& thread = state.CurrentThread();
  StackFrame& frame = thread.frames.back();

  std::vector<ExprRef> args;
  for (const ir::Value& v : inst.operands) {
    args.push_back(EvalValue(state, frame, v));
  }
  auto set_result = [&](const ExprRef& v) {
    if (inst.result >= 0) {
      frame.regs[static_cast<size_t>(inst.result)] = v;
    }
  };
  auto fail = [&](BugInfo bug) {
    result.state_done = true;
    result.bug = std::move(bug);
  };

  // Resolve the external once; every case below (and the sync_point flag
  // the engine's dedup relies on) reuses it.
  const ExternalId ext = ExternalIdOf(callee_index);
  result.sync_point = IsSyncExternal(ext);
  if (args.size() < MinArgsOf(ext)) {
    fail(MakeBug(BugInfo::Kind::kInternalError, site, thread.id, 0,
                 "external '" + callee.name + "' called with too few arguments"));
    return result;
  }

  // Synchronization externals dispatch through the handler table; only the
  // environment-model externals remain in the switch below.
  if (const SyncHandler* handler = FindSyncHandler(ext)) {
    SyncCall call{ext, inst, site, args};
    StepResult sync_result = (this->*(*handler))(state, call);
    sync_result.sync_point = result.sync_point;
    return sync_result;
  }

  switch (ext) {
    case ExternalId::kGetchar: {
      ExprRef v = MakeInput(state, "getchar", 32);
      if (!v->IsConst()) {
        // getchar() yields an unsigned char (EOF excluded for simplicity).
        state.AddConstraint(solver::MakeUle(v, solver::MakeConst(32, 255)));
      }
      set_result(v);
      AdvancePc(state);
      return result;
    }
    case ExternalId::kGetenv: {
      uint64_t name_ptr;
      if (!ConcretizeU64(state, args[0], &name_ptr)) {
        result.state_done = true;
        return result;
      }
      std::string name;
      BugInfo bug;
      if (!ReadCString(state, name_ptr, &name, site, &bug)) {
        fail(std::move(bug));
        return result;
      }
      uint32_t len = options_.env_string_len;
      uint32_t obj = state.mem.Allocate(len, ObjectKind::kHeap, "env:" + name);
      MemoryObject* mem = state.mem.FindWritable(obj);
      for (uint32_t i = 0; i + 1 < len; ++i) {
        state.mem.WriteByte(
            mem, i, MakeInput(state, "env:" + name + "[" + std::to_string(i) + "]", 8));
      }
      state.mem.WriteByte(mem, len - 1, solver::MakeConst(8, 0));
      set_result(solver::MakeConst(64, MakePointer(obj, 0)));
      AdvancePc(state);
      return result;
    }
    case ExternalId::kInputI32:
    case ExternalId::kInputI64: {
      uint64_t name_ptr;
      std::string name = "input";
      BugInfo bug;
      if (ConcretizeU64(state, args[0], &name_ptr) &&
          !ReadCString(state, name_ptr, &name, site, &bug)) {
        fail(std::move(bug));
        return result;
      }
      uint32_t width = ext == ExternalId::kInputI32 ? 32 : 64;
      set_result(MakeInput(state, name, width));
      AdvancePc(state);
      return result;
    }
    case ExternalId::kInputBytes: {
      uint64_t buf, len, name_ptr;
      std::string name = "bytes";
      BugInfo bug;
      if (!ConcretizeU64(state, args[0], &buf) ||
          !ConcretizeU64(state, args[1], &len) ||
          !ConcretizeU64(state, args[2], &name_ptr)) {
        result.state_done = true;
        return result;
      }
      if (!ReadCString(state, name_ptr, &name, site, &bug)) {
        fail(std::move(bug));
        return result;
      }
      for (uint64_t i = 0; i < len; ++i) {
        ExprRef byte = MakeInput(state, name + "[" + std::to_string(i) + "]", 8);
        if (!StoreBytes(state, buf + i, byte, site, &bug)) {
          fail(std::move(bug));
          return result;
        }
      }
      AdvancePc(state);
      return result;
    }
    case ExternalId::kMalloc: {
      uint64_t size;
      if (!ConcretizeU64(state, args[0], &size)) {
        result.state_done = true;
        return result;
      }
      if (size == 0) {
        size = 1;
      }
      if (size > (uint64_t{1} << 24)) {
        set_result(solver::MakeConst(64, 0));  // Simulated allocation failure.
        AdvancePc(state);
        return result;
      }
      uint32_t obj =
          state.mem.Allocate(static_cast<uint32_t>(size), ObjectKind::kHeap, "malloc");
      set_result(solver::MakeConst(64, MakePointer(obj, 0)));
      AdvancePc(state);
      return result;
    }
    case ExternalId::kFree: {
      uint64_t ptr;
      if (!ConcretizeU64(state, args[0], &ptr)) {
        result.state_done = true;
        return result;
      }
      if (ptr == 0) {
        AdvancePc(state);  // free(NULL) is a no-op.
        return result;
      }
      const MemoryObject* obj = state.mem.Find(PointerObject(ptr));
      if (obj == nullptr || PointerOffset(ptr) != 0 || obj->kind != ObjectKind::kHeap) {
        fail(MakeBug(BugInfo::Kind::kInvalidFree, site, thread.id, ptr,
                     "free of a non-heap or interior pointer"));
        return result;
      }
      if (obj->freed) {
        fail(MakeBug(BugInfo::Kind::kDoubleFree, site, thread.id, ptr, "double free"));
        return result;
      }
      state.mem.Free(PointerObject(ptr));
      AdvancePc(state);
      return result;
    }
    case ExternalId::kMemset: {
      uint64_t ptr, len, value;
      if (!ConcretizeU64(state, args[0], &ptr) ||
          !ConcretizeU64(state, args[2], &len) ||
          !ConcretizeU64(state, args[1], &value)) {
        result.state_done = true;
        return result;
      }
      BugInfo bug;
      for (uint64_t i = 0; i < len; ++i) {
        if (!StoreBytes(state, ptr + i, solver::MakeConst(8, value & 0xff), site,
                        &bug)) {
          fail(std::move(bug));
          return result;
        }
      }
      AdvancePc(state);
      return result;
    }
    case ExternalId::kMemcpy: {
      uint64_t dst, src, len;
      if (!ConcretizeU64(state, args[0], &dst) ||
          !ConcretizeU64(state, args[1], &src) ||
          !ConcretizeU64(state, args[2], &len)) {
        result.state_done = true;
        return result;
      }
      BugInfo bug;
      for (uint64_t i = 0; i < len; ++i) {
        ExprRef byte;
        if (!LoadBytes(state, src + i, 1, &byte, site, &bug) ||
            !StoreBytes(state, dst + i, byte, site, &bug)) {
          fail(std::move(bug));
          return result;
        }
      }
      AdvancePc(state);
      return result;
    }
    case ExternalId::kStrlen: {
      uint64_t ptr;
      if (!ConcretizeU64(state, args[0], &ptr)) {
        result.state_done = true;
        return result;
      }
      std::string s;
      BugInfo bug;
      if (!ReadCString(state, ptr, &s, site, &bug)) {
        fail(std::move(bug));
        return result;
      }
      set_result(solver::MakeConst(64, s.size()));
      AdvancePc(state);
      return result;
    }
    case ExternalId::kPrintStr: {
      uint64_t ptr;
      if (!ConcretizeU64(state, args[0], &ptr)) {
        result.state_done = true;
        return result;
      }
      std::string s;
      BugInfo bug;
      if (!ReadCString(state, ptr, &s, site, &bug)) {
        fail(std::move(bug));
        return result;
      }
      state.output += s;
      AdvancePc(state);
      return result;
    }
    case ExternalId::kPrintI64: {
      uint64_t v;
      if (!ConcretizeU64(state, args[0], &v)) {
        result.state_done = true;
        return result;
      }
      state.output += std::to_string(static_cast<int64_t>(v));
      AdvancePc(state);
      return result;
    }
    case ExternalId::kExit:
      result.state_done = true;
      return result;
    case ExternalId::kAbort:
      fail(MakeBug(BugInfo::Kind::kAbort, site, thread.id, 0, "abort() called"));
      return result;
    case ExternalId::kAssert: {
      ExprRef cond = args[0];
      if (cond->IsConst()) {
        if (cond->aux()) {
          AdvancePc(state);
        } else {
          fail(MakeBug(BugInfo::Kind::kAssertFail, site, thread.id, 0,
                       "assertion failed"));
        }
        return result;
      }
      bool may_fail = solver_->MayBeFalse(state.constraints, cond);
      bool may_pass = solver_->MayBeTrue(state.constraints, cond);
      if (may_fail && may_pass) {
        // Fork the passing continuation; this state manifests the failure.
        StatePtr child = state.Fork(AllocStateId());
        child->AddConstraint(cond);
        ++child->CurrentThread().frames.back().inst;
        result.forks.push_back(std::move(child));
        ++state.depth;
      }
      if (may_fail) {
        state.AddConstraint(solver::MakeLogicalNot(cond));
        fail(MakeBug(BugInfo::Kind::kAssertFail, site, thread.id, 0,
                     "assertion failed (symbolic)"));
      } else {
        state.AddConstraint(cond);
        AdvancePc(state);
      }
      return result;
    }
    default:
      break;  // kUnknown, plus sync ids (already dispatched above).
  }
  result.state_done = true;
  result.bug = MakeBug(BugInfo::Kind::kInternalError, site, thread.id, 0,
                       "call to unmodeled external '" + callee.name + "'");
  return result;
}

// ---- Synchronization handlers (table-driven; see FindSyncHandler) ----

StepResult Interpreter::BlockCurrentThread(ExecutionState& state) {
  StepResult result;
  if (HasSyncCycle(state)) {
    result.state_done = true;
    result.bug = MakeDeadlockBug(state);
    return result;
  }
  if (!ScheduleNext(state)) {
    result.state_done = true;
    result.bug = MakeDeadlockBug(state);
  }
  return result;
}

StepResult Interpreter::ExecThreadCreate(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t fp;
  if (!ConcretizeU64(state, call.args[0], &fp)) {
    result.state_done = true;
    return result;
  }
  if (!IsFunctionPointer(fp) || FunctionIndexOf(fp) >= module_->NumFunctions()) {
    result.state_done = true;
    result.bug = MakeBug(BugInfo::Kind::kInternalError, call.site, thread.id, fp,
                         "thread_create with a non-function pointer");
    return result;
  }
  uint32_t func = FunctionIndexOf(fp);
  Thread new_thread;
  new_thread.id = state.next_tid++;
  const ir::Function& fn = module_->Func(func);
  StackFrame tf;
  tf.func = func;
  tf.regs.assign(fn.num_regs, nullptr);
  if (!fn.params.empty()) {
    tf.regs[0] = call.args.size() > 1 ? call.args[1] : solver::MakeConst(64, 0);
  }
  new_thread.frames.push_back(std::move(tf));
  uint32_t new_tid = new_thread.id;
  // push_back may reallocate `state.threads`, so the current thread (and
  // its result register) must be re-resolved afterwards, never cached.
  const uint32_t creator_tid = thread.id;
  state.threads.push_back(std::move(new_thread));
  // The event names the spawned thread; `addr` carries the *creator* so
  // happens-before replay knows which thread must run to perform the
  // create (legacy files carry 0 there — main — which is what they meant).
  state.RecordEvent(SchedEvent::Kind::kThreadCreate, new_tid, creator_tid,
                    call.site);
  if (call.inst.result >= 0) {
    state.CurrentThread().frames.back().regs[static_cast<size_t>(call.inst.result)] =
        solver::MakeConst(32, new_tid);
  }
  AdvancePc(state);
  return result;
}

StepResult Interpreter::ExecThreadJoin(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t tid;
  if (!ConcretizeU64(state, call.args[0], &tid)) {
    result.state_done = true;
    return result;
  }
  Thread* target = state.FindThread(static_cast<uint32_t>(tid));
  if (target == nullptr || target->status == ThreadStatus::kExited) {
    AdvancePc(state);
    return result;
  }
  thread.status = ThreadStatus::kBlockedJoin;
  thread.join_tid = static_cast<uint32_t>(tid);
  return BlockCurrentThread(state);
}

StepResult Interpreter::ExecSyncObjectInit(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, 1, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  switch (call.ext) {
    case ExternalId::kMutexInit:
      state.mutable_mutexes()[addr] = MutexState{};
      break;
    case ExternalId::kCondInit:
      state.mutable_cond_waiters()[addr].clear();
      break;
    case ExternalId::kRwLockInit:
      state.mutable_rwlocks()[addr] = RwLockState{};
      break;
    case ExternalId::kSemInit: {
      uint64_t count;
      if (!ConcretizeU64(state, call.args[1], &count)) {
        result.state_done = true;
        return result;
      }
      state.mutable_semaphores()[addr] = SemState{static_cast<uint32_t>(count)};
      break;
    }
    case ExternalId::kBarrierInit: {
      uint64_t count;
      if (!ConcretizeU64(state, call.args[1], &count)) {
        result.state_done = true;
        return result;
      }
      if (count == 0) {
        result.state_done = true;
        result.bug = MakeBug(BugInfo::Kind::kInvalidSync, call.site, thread.id, addr,
                             "barrier_init with a zero participant count");
        return result;
      }
      state.mutable_barriers()[addr] = BarrierState{static_cast<uint32_t>(count), {}};
      break;
    }
    default:
      break;
  }
  AdvancePc(state);
  return result;
}

StepResult Interpreter::ExecMutexLock(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  const bool try_only = call.ext == ExternalId::kMutexTryLock;
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, 1, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  auto set_try_result = [&](uint64_t v) {
    if (call.inst.result >= 0) {
      thread.frames.back().regs[static_cast<size_t>(call.inst.result)] =
          solver::MakeConst(32, v);
    }
  };
  MutexState& m = state.mutable_mutexes()[addr];
  if (!m.locked) {
    m.locked = true;
    m.holder = thread.id;
    m.acquired_at = call.site;
    state.RecordEvent(SchedEvent::Kind::kMutexLock, thread.id, addr, call.site);
    if (try_only) {
      set_try_result(1);
    }
    AdvancePc(state);
    if (options_.policy != nullptr && options_.services != nullptr) {
      options_.policy->OnLockAcquired(*options_.services, state, addr, call.site);
    }
    return result;
  }
  if (try_only) {
    // Contended (or already self-held): fail without blocking. The
    // kTryFail event orders the failed attempt inside the holder's
    // critical section for happens-before replay.
    state.RecordEvent(SchedEvent::Kind::kTryFail, thread.id, addr, call.site);
    set_try_result(0);
    AdvancePc(state);
    return result;
  }
  if (m.holder == thread.id) {
    // Non-recursive mutex relocked by its holder: self-deadlock.
    result.state_done = true;
    result.bug = MakeBug(BugInfo::Kind::kDeadlock, call.site, thread.id, addr,
                         "thread relocked a mutex it already holds");
    return result;
  }
  thread.status = ThreadStatus::kBlockedMutex;
  thread.wait_mutex = addr;
  if (options_.policy != nullptr && options_.services != nullptr) {
    options_.policy->OnLockBlocked(*options_.services, state, addr, m.holder);
  }
  return BlockCurrentThread(state);
}

StepResult Interpreter::ExecMutexUnlock(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  auto it = state.mutable_mutexes().find(addr);
  if (it == state.mutable_mutexes().end() || !it->second.locked ||
      it->second.holder != thread.id) {
    result.state_done = true;
    result.bug = MakeBug(BugInfo::Kind::kInvalidSync, call.site, thread.id, addr,
                         "unlock of a mutex not held by this thread");
    return result;
  }
  it->second.locked = false;
  it->second.holder = ir::kInvalidIndex;
  // Wake all waiters; they re-execute their lock call and race for it.
  for (Thread& t : state.threads) {
    if (t.status == ThreadStatus::kBlockedMutex && t.wait_mutex == addr) {
      t.status = ThreadStatus::kRunnable;
      t.wait_mutex = 0;
    }
  }
  state.RecordEvent(SchedEvent::Kind::kMutexUnlock, thread.id, addr, call.site);
  AdvancePc(state);
  if (options_.policy != nullptr && options_.services != nullptr) {
    options_.policy->OnUnlock(*options_.services, state, addr);
  }
  return result;
}

StepResult Interpreter::ExecCondWait(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t cond_addr, mutex_addr;
  if (!ConcretizeU64(state, call.args[0], &cond_addr) ||
      !ConcretizeU64(state, call.args[1], &mutex_addr)) {
    result.state_done = true;
    return result;
  }
  if (!thread.cond_signaled) {
    // Phase 1: release the mutex and sleep on the condvar.
    auto it = state.mutable_mutexes().find(mutex_addr);
    if (it == state.mutable_mutexes().end() || !it->second.locked ||
        it->second.holder != thread.id) {
      result.state_done = true;
      result.bug = MakeBug(BugInfo::Kind::kInvalidSync, call.site, thread.id,
                           mutex_addr, "cond_wait without holding the mutex");
      return result;
    }
    it->second.locked = false;
    it->second.holder = ir::kInvalidIndex;
    for (Thread& t : state.threads) {
      if (t.status == ThreadStatus::kBlockedMutex && t.wait_mutex == mutex_addr) {
        t.status = ThreadStatus::kRunnable;
        t.wait_mutex = 0;
      }
    }
    thread.status = ThreadStatus::kBlockedCond;
    thread.wait_cond = cond_addr;
    thread.cond_saved_mutex = mutex_addr;
    state.mutable_cond_waiters()[cond_addr].push_back(thread.id);
    state.RecordEvent(SchedEvent::Kind::kCondWait, thread.id, cond_addr, call.site);
    if (!ScheduleNext(state)) {
      result.state_done = true;
      result.bug = MakeDeadlockBug(state);
    }
    return result;
  }
  // Phase 2 (signaled): reacquire the mutex.
  MutexState& m = state.mutable_mutexes()[mutex_addr];
  if (!m.locked) {
    m.locked = true;
    m.holder = thread.id;
    m.acquired_at = call.site;
    thread.cond_signaled = false;
    thread.cond_saved_mutex = 0;
    state.RecordEvent(SchedEvent::Kind::kCondWake, thread.id, cond_addr, call.site);
    AdvancePc(state);
    if (options_.policy != nullptr && options_.services != nullptr) {
      options_.policy->OnLockAcquired(*options_.services, state, mutex_addr,
                                      call.site);
    }
    return result;
  }
  thread.status = ThreadStatus::kBlockedMutex;
  thread.wait_mutex = mutex_addr;
  return BlockCurrentThread(state);
}

StepResult Interpreter::ExecCondWake(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  uint64_t cond_addr;
  if (!ConcretizeU64(state, call.args[0], &cond_addr)) {
    result.state_done = true;
    return result;
  }
  auto& waiters = state.mutable_cond_waiters()[cond_addr];
  const bool broadcast = call.ext == ExternalId::kCondBroadcast;
  // Single-waiter semantics, pinned: a signal wakes exactly one *eligible*
  // waiter (thread still alive and still blocked on this condvar). Stale
  // entries — e.g. a waiter that exited while parked — are dropped rather
  // than silently consuming the signal, and a broadcast wakes every
  // eligible waiter, never more.
  size_t budget = broadcast ? waiters.size() : 1;
  size_t i = 0;
  while (i < waiters.size() && budget > 0) {
    Thread* t = state.FindThread(waiters[i]);
    if (t == nullptr || t->status != ThreadStatus::kBlockedCond ||
        t->wait_cond != cond_addr) {
      waiters.erase(waiters.begin() + static_cast<ptrdiff_t>(i));
      continue;  // Stale entry: drop it without spending the wake budget.
    }
    t->status = ThreadStatus::kRunnable;
    t->wait_cond = 0;
    t->cond_signaled = true;
    waiters.erase(waiters.begin() + static_cast<ptrdiff_t>(i));
    --budget;
  }
  AdvancePc(state);
  return result;
}

StepResult Interpreter::ExecRwLock(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  const bool want_write = call.ext == ExternalId::kRwWrLock ||
                          call.ext == ExternalId::kRwTryWrLock;
  const bool try_only = call.ext == ExternalId::kRwTryRdLock ||
                        call.ext == ExternalId::kRwTryWrLock;
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, 1, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  auto set_try_result = [&](uint64_t v) {
    if (call.inst.result >= 0) {
      thread.frames.back().regs[static_cast<size_t>(call.inst.result)] =
          solver::MakeConst(32, v);
    }
  };
  RwLockState& rw = state.mutable_rwlocks()[addr];
  if (rw.writer == thread.id) {
    if (try_only) {
      // A try operation never blocks: the writer's own re-request simply
      // fails (POSIX EBUSY/EDEADLK), like mutex_trylock on a self-held
      // mutex.
      state.RecordEvent(SchedEvent::Kind::kTryFail, thread.id, addr, call.site);
      set_try_result(0);
      AdvancePc(state);
      return result;
    }
    // The active writer blocking on either mode can never proceed.
    result.state_done = true;
    result.bug = MakeBug(BugInfo::Kind::kDeadlock, call.site, thread.id, addr,
                         "thread re-acquired an rwlock it holds for writing");
    return result;
  }
  const uint32_t own_reads = rw.ReaderCount(thread.id);
  bool acquirable;
  if (want_write) {
    // Write acquisition: free, or an upgrade by the sole reader. With other
    // readers present the writer must wait for them to drain — the
    // schedule-dependent upgrade-deadlock window.
    acquirable = rw.writer == ir::kInvalidIndex &&
                 rw.readers.size() == own_reads;
  } else {
    // Read acquisition: any number of readers share; only an active writer
    // excludes. Recursive read re-acquisition is allowed (counting).
    acquirable = rw.writer == ir::kInvalidIndex;
  }
  if (acquirable) {
    if (want_write) {
      // An upgrade consumes the thread's read holds.
      rw.readers.erase(std::remove(rw.readers.begin(), rw.readers.end(), thread.id),
                       rw.readers.end());
      rw.writer = thread.id;
      rw.acquired_at = call.site;
      state.RecordEvent(SchedEvent::Kind::kRwWrLock, thread.id, addr, call.site);
    } else {
      rw.readers.push_back(thread.id);
      state.RecordEvent(SchedEvent::Kind::kRwRdLock, thread.id, addr, call.site);
    }
    if (try_only) {
      set_try_result(1);
    }
    AdvancePc(state);
    if (options_.policy != nullptr && options_.services != nullptr) {
      options_.policy->OnLockAcquired(*options_.services, state, addr, call.site);
    }
    return result;
  }
  if (try_only) {
    state.RecordEvent(SchedEvent::Kind::kTryFail, thread.id, addr, call.site);
    set_try_result(0);
    AdvancePc(state);
    return result;
  }
  thread.status = want_write ? ThreadStatus::kBlockedRwWrite
                             : ThreadStatus::kBlockedRwRead;
  thread.wait_sync = addr;
  if (options_.policy != nullptr && options_.services != nullptr) {
    // The blocking "holder": the active writer, else the first other
    // reader (an upgrade wait is a wait on the remaining readers).
    uint32_t holder = rw.writer;
    if (holder == ir::kInvalidIndex) {
      for (uint32_t reader : rw.readers) {
        if (reader != thread.id) {
          holder = reader;
          break;
        }
      }
    }
    if (holder != ir::kInvalidIndex) {
      options_.policy->OnLockBlocked(*options_.services, state, addr, holder);
    }
  }
  return BlockCurrentThread(state);
}

StepResult Interpreter::ExecRwUnlock(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  auto it = state.mutable_rwlocks().find(addr);
  if (it == state.mutable_rwlocks().end() ||
      (it->second.writer != thread.id && it->second.ReaderCount(thread.id) == 0)) {
    result.state_done = true;
    result.bug = MakeBug(BugInfo::Kind::kInvalidSync, call.site, thread.id, addr,
                         "rwlock_unlock of a lock not held by this thread");
    return result;
  }
  RwLockState& rw = it->second;
  if (rw.writer == thread.id) {
    rw.writer = ir::kInvalidIndex;
    rw.acquired_at = {};
  } else {
    // Drop one read hold (recursive reads release one level at a time).
    auto pos = std::find(rw.readers.begin(), rw.readers.end(), thread.id);
    rw.readers.erase(pos);
  }
  // Wake every thread blocked on this rwlock; each re-executes its lock
  // call and re-evaluates acquirability (readers may now share, an
  // upgrading writer may now be the sole reader).
  for (Thread& t : state.threads) {
    if ((t.status == ThreadStatus::kBlockedRwRead ||
         t.status == ThreadStatus::kBlockedRwWrite) &&
        t.wait_sync == addr) {
      t.status = ThreadStatus::kRunnable;
      t.wait_sync = 0;
    }
  }
  state.RecordEvent(SchedEvent::Kind::kRwUnlock, thread.id, addr, call.site);
  AdvancePc(state);
  if (rw.Free() && options_.policy != nullptr && options_.services != nullptr) {
    options_.policy->OnUnlock(*options_.services, state, addr);
  }
  return result;
}

StepResult Interpreter::ExecSemWait(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  const bool try_only = call.ext == ExternalId::kSemTryWait;
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, 1, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  auto set_try_result = [&](uint64_t v) {
    if (call.inst.result >= 0) {
      thread.frames.back().regs[static_cast<size_t>(call.inst.result)] =
          solver::MakeConst(32, v);
    }
  };
  SemState& sem = state.mutable_semaphores()[addr];
  if (sem.count > 0) {
    --sem.count;
    state.RecordEvent(SchedEvent::Kind::kSemWait, thread.id, addr, call.site);
    if (try_only) {
      set_try_result(1);
    }
    AdvancePc(state);
    if (options_.policy != nullptr && options_.services != nullptr) {
      options_.policy->OnLockAcquired(*options_.services, state, addr, call.site);
    }
    return result;
  }
  if (try_only) {
    state.RecordEvent(SchedEvent::Kind::kTryFail, thread.id, addr, call.site);
    set_try_result(0);
    AdvancePc(state);
    return result;
  }
  thread.status = ThreadStatus::kBlockedSem;
  thread.wait_sync = addr;
  return BlockCurrentThread(state);
}

StepResult Interpreter::ExecSemPost(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, 1, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  ++state.mutable_semaphores()[addr].count;
  // Wake every waiter; they re-execute sem_wait and race for the count.
  for (Thread& t : state.threads) {
    if (t.status == ThreadStatus::kBlockedSem && t.wait_sync == addr) {
      t.status = ThreadStatus::kRunnable;
      t.wait_sync = 0;
    }
  }
  state.RecordEvent(SchedEvent::Kind::kSemPost, thread.id, addr, call.site);
  AdvancePc(state);
  if (options_.policy != nullptr && options_.services != nullptr) {
    options_.policy->OnUnlock(*options_.services, state, addr);
  }
  return result;
}

StepResult Interpreter::ExecBarrierWait(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  Thread& thread = state.CurrentThread();
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, 1, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  if (thread.barrier_released) {
    // Re-executed after the release: the wait completes.
    thread.barrier_released = false;
    state.RecordEvent(SchedEvent::Kind::kBarrierWait, thread.id, addr, call.site);
    AdvancePc(state);
    return result;
  }
  BarrierState& bar = state.mutable_barriers()[addr];
  if (bar.required != 0 && bar.waiting.size() + 1 >= bar.required) {
    // Last arrival: release everyone. The released threads re-execute
    // barrier_wait and complete via the barrier_released flag; this thread
    // passes immediately. A count mismatch (required never reached) leaves
    // the arrivals parked forever — the global no-progress check reports
    // the deadlock.
    for (uint32_t waiting_tid : bar.waiting) {
      Thread* t = state.FindThread(waiting_tid);
      if (t != nullptr && t->status == ThreadStatus::kBlockedBarrier) {
        t->status = ThreadStatus::kRunnable;
        t->wait_sync = 0;
        t->barrier_released = true;
      }
    }
    bar.waiting.clear();
    state.RecordEvent(SchedEvent::Kind::kBarrierWait, thread.id, addr, call.site);
    AdvancePc(state);
    return result;
  }
  bar.waiting.push_back(thread.id);
  thread.status = ThreadStatus::kBlockedBarrier;
  thread.wait_sync = addr;
  return BlockCurrentThread(state);
}

StepResult Interpreter::ExecYield(ExecutionState& state, const SyncCall& /*call*/) {
  StepResult result;
  AdvancePc(state);
  ScheduleNext(state);
  return result;
}

// ---- C11 atomics & the TSO store buffer ----
//
// Memory orders use C11 numbering: 0 relaxed, 1 consume, 2 acquire,
// 3 release, 4 acq_rel, 5 seq_cst. A store with order < 3 parks in the
// issuing thread's buffer; release-or-stronger stores, every RMW, fences
// with order >= 3, and thread exit drain the thread's own buffer. Buffered
// entries drain out of order across addresses (same-address entries stay
// FIFO) — looser than strict x86-TSO, which is what lets a later
// flag-store become visible before an earlier data-store and makes
// missing-release-fence bugs reachable. Atomic accesses are synchronizing:
// they bypass the lockset race detector but still wake sleep-set entries.

namespace {
constexpr uint64_t kOrderRelease = 3;
constexpr uint32_t kAtomicBytes = 4;  // All atomics are 32-bit.
}  // namespace

void Interpreter::MaybeDrainForks(ExecutionState& state, StepResult* result) {
  // Every atomic operation is a flush choice point: fork one schedule
  // variant per eligible buffered store (the oldest pending entry of each
  // (thread, address) pair — per-address FIFO). The child commits that
  // entry with the pc unchanged, so the atomic op re-executes there and
  // enumerates the remaining drain orders recursively; fingerprint dedup
  // collapses commuting orders. Symbolic mode only — concrete playback
  // applies the recorded flushes instead.
  if (!options_.store_buffer || options_.input_provider != nullptr) {
    return;
  }
  for (const Thread& t : state.threads) {
    std::vector<uint64_t> seen;
    for (const PendingStore& p : t.store_buffer) {
      if (std::find(seen.begin(), seen.end(), p.addr) != seen.end()) {
        continue;  // A newer same-address entry cannot pass the oldest.
      }
      seen.push_back(p.addr);
      StatePtr child = state.Fork(AllocStateId());
      // Rewind the step the parent just spent reaching this op: the child
      // re-executes it, and strict replay (which never burns the aborted
      // attempt) must see the flush and the op at the same step indices
      // the child records.
      --child->steps;
      child->CommitBufferedStore(t.id, p.addr);
      child->is_schedule_snapshot = true;
      result->forks.push_back(std::move(child));
    }
  }
  if (!result->forks.empty()) {
    ++state.depth;
  }
}

ExprRef Interpreter::AtomicReadMem(ExecutionState& state, uint64_t addr) {
  const MemoryObject* obj = state.mem.Find(PointerObject(addr));
  uint32_t offset = PointerOffset(addr);
  ExprRef value = obj->ByteAt(offset);
  for (uint32_t i = 1; i < kAtomicBytes; ++i) {
    value = solver::MakeConcat(obj->ByteAt(offset + i), value);
  }
  state.SleepSetWakeAccess(MakePointer(PointerObject(addr), offset),
                           /*is_write=*/false);
  return value;
}

void Interpreter::AtomicWriteMem(ExecutionState& state, uint64_t addr,
                                 const ExprRef& value) {
  MemoryObject* obj = state.mem.FindWritable(PointerObject(addr));
  uint32_t offset = PointerOffset(addr);
  for (uint32_t i = 0; i < kAtomicBytes; ++i) {
    state.mem.WriteByte(obj, offset + i, solver::MakeExtract(value, i * 8, 8));
  }
  state.SleepSetWakeAccess(MakePointer(PointerObject(addr), offset),
                           /*is_write=*/true);
}

StepResult Interpreter::ExecAtomicLoad(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  MaybeDrainForks(state, &result);
  Thread& thread = state.CurrentThread();
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, kAtomicBytes, /*is_write=*/false, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  // Store-to-load forwarding: the thread's own newest pending store to this
  // address wins over memory (TSO — a thread always sees its own stores).
  ExprRef value;
  for (auto it = thread.store_buffer.rbegin(); it != thread.store_buffer.rend();
       ++it) {
    if (it->addr == addr) {
      value = it->value;
      break;
    }
  }
  if (value == nullptr) {
    value = AtomicReadMem(state, addr);
  }
  state.RecordEvent(SchedEvent::Kind::kAtomicLoad, thread.id, addr, call.site);
  if (call.inst.result >= 0) {
    thread.frames.back().regs[static_cast<size_t>(call.inst.result)] = value;
  }
  AdvancePc(state);
  return result;
}

StepResult Interpreter::ExecAtomicStore(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  MaybeDrainForks(state, &result);
  Thread& thread = state.CurrentThread();
  uint64_t addr, order;
  if (!ConcretizeU64(state, call.args[0], &addr) ||
      !ConcretizeU64(state, call.args[2], &order)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, kAtomicBytes, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  ExprRef value = call.args[1];
  if (value->width() < 32) {
    value = solver::MakeZExt(value, 32);
  } else if (value->width() > 32) {
    value = solver::MakeExtract(value, 0, 32);
  }
  if (options_.store_buffer && order < kOrderRelease) {
    if (thread.store_buffer.size() >= kStoreBufferCap) {
      // Full buffer: hardware would stall; drain the oldest entry instead.
      state.CommitBufferedStore(thread.id, thread.store_buffer.front().addr);
    }
    state.CurrentThread().store_buffer.push_back(
        PendingStore{addr, kAtomicBytes, value, call.site});
  } else {
    // Release-or-stronger (or the --no-store-buffer ablation): nothing
    // issued before may be reordered past this store, so drain everything
    // pending, then write through.
    state.DrainStoreBuffer(state.CurrentThread());
    AtomicWriteMem(state, addr, value);
  }
  state.RecordEvent(SchedEvent::Kind::kAtomicStore, state.current_tid, addr,
                    call.site);
  AdvancePc(state);
  return result;
}

StepResult Interpreter::ExecAtomicRmw(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  MaybeDrainForks(state, &result);
  Thread& thread = state.CurrentThread();
  uint64_t addr;
  if (!ConcretizeU64(state, call.args[0], &addr)) {
    result.state_done = true;
    return result;
  }
  BugInfo bug;
  if (!CheckAccess(state, addr, kAtomicBytes, /*is_write=*/true, call.site, &bug)) {
    result.state_done = true;
    result.bug = std::move(bug);
    return result;
  }
  // Every RMW is a full flush point regardless of its order annotation
  // (x86 lock-prefixed ops drain the store buffer).
  state.DrainStoreBuffer(thread);
  ExprRef old = AtomicReadMem(state, addr);
  ExprRef arg = call.args[1];
  if (arg->width() < 32) {
    arg = solver::MakeZExt(arg, 32);
  } else if (arg->width() > 32) {
    arg = solver::MakeExtract(arg, 0, 32);
  }
  ExprRef next;
  switch (call.ext) {
    case ExternalId::kAtomicExchange:
      next = arg;
      break;
    case ExternalId::kAtomicFetchAdd:
      next = solver::MakeAdd(old, arg);
      break;
    default: {  // kAtomicCas: args are (ptr, expected, desired, order).
      ExprRef desired = call.args[2];
      if (desired->width() < 32) {
        desired = solver::MakeZExt(desired, 32);
      } else if (desired->width() > 32) {
        desired = solver::MakeExtract(desired, 0, 32);
      }
      // Ite keeps a symbolic comparison in-expression instead of forking;
      // the caller's own compare of the returned old value forks the path.
      next = solver::MakeIte(solver::MakeEq(old, arg), desired, old);
      break;
    }
  }
  AtomicWriteMem(state, addr, next);
  state.RecordEvent(SchedEvent::Kind::kAtomicRmw, thread.id, addr, call.site);
  if (call.inst.result >= 0) {
    thread.frames.back().regs[static_cast<size_t>(call.inst.result)] = old;
  }
  AdvancePc(state);
  return result;
}

StepResult Interpreter::ExecAtomicFence(ExecutionState& state, const SyncCall& call) {
  StepResult result;
  MaybeDrainForks(state, &result);
  uint64_t order;
  if (!ConcretizeU64(state, call.args[0], &order)) {
    result.state_done = true;
    return result;
  }
  if (order >= kOrderRelease) {
    state.DrainStoreBuffer(state.CurrentThread());
  }
  state.RecordEvent(SchedEvent::Kind::kAtomicFence, state.current_tid, 0, call.site);
  AdvancePc(state);
  return result;
}

}  // namespace esd::vm
