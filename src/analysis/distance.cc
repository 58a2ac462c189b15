#include "src/analysis/distance.h"

#include <algorithm>
#include <cassert>

#include "src/analysis/dataflow.h"
#include "src/ir/printer.h"

namespace esd::analysis {
namespace {

uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a >= kInfDistance || b >= kInfDistance) {
    return kInfDistance;
  }
  uint64_t s = a + b;
  return s >= kInfDistance ? kInfDistance : s;
}

// Backward dataflow policy for min-cost-to-return: the state at a program
// point is the least remaining cost to a `ret` of this function. The
// fixpoint of this policy over the reverse CFG equals the Dijkstra
// relaxation it replaced: SatAdd distributes over min, so the worklist's
// maximum fixpoint is the meet-over-all-paths shortest-path solution.
struct ExitDistPolicy {
  using State = uint64_t;
  const std::vector<uint64_t>* inst_cost;
  const std::vector<uint64_t>* block_start;

  State InitialState(uint32_t) const { return kInfDistance; }
  bool Join(State* into, const State& from) const {
    if (from < *into) {
      *into = from;
      return true;
    }
    return false;
  }
  void Transfer(const ir::Instruction& inst, uint32_t block, uint32_t i,
                State* s) const {
    uint64_t c = (*inst_cost)[(*block_start)[block] + i];
    // A return ends the path here; anything else adds its cost to the
    // remaining distance flowing in from the successors.
    *s = inst.op == ir::Opcode::kRet ? c : SatAdd(c, *s);
  }
};

}  // namespace

// Backward dataflow policy for goal distance: the state is the least cost
// from the current program point to "goal progress" (the goal instruction
// itself, or a call whose callee can reach it — OpportunityCost). Defined
// outside the anonymous namespace so it can call the calculator's public
// OpportunityCost; used by GetGoalTable and the EntryDistances fixpoint.
struct GoalDistPolicy {
  using State = uint64_t;
  DistanceCalculator* calc;
  uint32_t func;
  ir::InstRef goal;
  const std::map<uint32_t, uint64_t>* entry;
  const std::vector<uint64_t>* inst_cost;
  const std::vector<uint64_t>* block_start;

  State InitialState(uint32_t) const { return kInfDistance; }
  bool Join(State* into, const State& from) const {
    if (from < *into) {
      *into = from;
      return true;
    }
    return false;
  }
  void Transfer(const ir::Instruction&, uint32_t b, uint32_t i,
                State* s) const {
    uint64_t c = (*inst_cost)[(*block_start)[b] + i];
    *s = std::min(calc->OpportunityCost(func, b, i, goal, *entry),
                  SatAdd(c, *s));
  }
};

DistanceCalculator::DistanceCalculator(const ir::Module* module,
                                       AnalysisContext* ctx)
    : module_(module), ctx_(ctx) {
  if (ctx_ == nullptr) {
    owned_ctx_ = std::make_unique<AnalysisContext>(module);
    ctx_ = owned_ctx_.get();
  }
  // Collect address-taken functions (candidate indirect-call targets), as
  // the paper's alias-analysis fallback: average the cost across targets.
  for (uint32_t f = 0; f < module_->NumFunctions(); ++f) {
    const ir::Function& fn = module_->Func(f);
    for (const ir::BasicBlock& bb : fn.blocks) {
      for (const ir::Instruction& inst : bb.insts) {
        for (const ir::Value& v : inst.operands) {
          if (v.kind == ir::Value::Kind::kFuncRef) {
            address_taken_.push_back(v.index);
          }
        }
      }
    }
  }
}

const Cfg& DistanceCalculator::GetCfg(uint32_t func) {
  // The shared context serializes its own fills and is sealed by Prewarm.
  return ctx_->GetCfg(func);
}

std::vector<uint32_t> DistanceCalculator::CallTargets(const ir::Instruction& inst) const {
  if (inst.op != ir::Opcode::kCall) {
    return {};
  }
  if (inst.callee != ir::kInvalidIndex) {
    return {inst.callee};
  }
  // Indirect: the operand may be a direct function reference; otherwise fall
  // back to all address-taken functions.
  if (!inst.operands.empty() &&
      inst.operands[0].kind == ir::Value::Kind::kFuncRef) {
    return {inst.operands[0].index};
  }
  return address_taken_;
}

std::vector<uint32_t> DistanceCalculator::EntryTargets(
    const ir::Instruction& inst) const {
  if (inst.op == ir::Opcode::kCall && inst.callee != ir::kInvalidIndex) {
    const ir::Function& callee = module_->Func(inst.callee);
    if (callee.is_external && callee.name == "thread_create") {
      if (!inst.operands.empty() &&
          inst.operands[0].kind == ir::Value::Kind::kFuncRef) {
        return {inst.operands[0].index};
      }
      return address_taken_;
    }
  }
  return CallTargets(inst);
}

uint64_t DistanceCalculator::InstCost(uint32_t /*func*/, const ir::Instruction& inst,
                                      std::vector<uint32_t>* call_stack) {
  if (inst.op != ir::Opcode::kCall) {
    return 1;
  }
  std::vector<uint32_t> targets = CallTargets(inst);
  if (targets.empty()) {
    return 1 + kRecursionCost;  // Unresolvable indirect call (§3.4).
  }
  uint64_t total = 0;
  for (uint32_t g : targets) {
    if (std::find(call_stack->begin(), call_stack->end(), g) != call_stack->end()) {
      total = SatAdd(total, kRecursionCost);  // Recursion: fixed cost (§3.4).
      continue;
    }
    const ir::Function& callee = module_->Func(g);
    if (callee.is_external) {
      total = SatAdd(total, 1);
      continue;
    }
    call_stack->push_back(g);
    uint64_t c = function_cost_.count(g) ? function_cost_[g] : 0;
    if (!function_cost_.count(g)) {
      ComputeCosts(g, call_stack);
      c = function_cost_[g];
    }
    call_stack->pop_back();
    total = SatAdd(total, std::min<uint64_t>(c, kRecursionCost));
  }
  return 1 + total / targets.size();
}

void DistanceCalculator::ComputeCosts(uint32_t func, std::vector<uint32_t>* call_stack) {
  if (costs_.count(func)) {
    return;
  }
  const ir::Function& fn = module_->Func(func);
  FuncCosts fc;
  fc.block_start.resize(fn.blocks.size());
  fc.block_cost.resize(fn.blocks.size());
  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    fc.block_start[b] = fc.inst_cost.size();
    uint64_t sum = 0;
    for (const ir::Instruction& inst : fn.blocks[b].insts) {
      uint64_t c = InstCost(func, inst, call_stack);
      fc.inst_prefix.push_back(sum);  // Cost of the block before this inst.
      fc.inst_cost.push_back(c);
      sum = SatAdd(sum, c);
    }
    fc.block_cost[b] = sum;
  }
  // exit_dist: min cost from block start to a return, as a backward
  // dataflow fixpoint over the shared CFG (a `ret` transfer seeds the path,
  // every other instruction adds its cost; see ExitDistPolicy).
  const Cfg& cfg = GetCfg(func);
  fc.exit_dist.assign(fn.blocks.size(), kInfDistance);
  if (!fn.blocks.empty()) {
    ExitDistPolicy policy{&fc.inst_cost, &fc.block_start};
    DataflowEngine<ExitDistPolicy> engine(fn, cfg, Direction::kBackward,
                                          &policy);
    engine.Run();
    for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
      fc.exit_dist[b] = engine.ExitState(b);
    }
  }
  costs_.emplace(func, std::move(fc));
  // Function cost = min cost from the entry block to a return.
  function_cost_[func] =
      fn.blocks.empty() ? 1 : costs_[func].exit_dist[0];
}

const DistanceCalculator::FuncCosts& DistanceCalculator::Costs(uint32_t func) {
  auto it = costs_.find(func);
  if (it != costs_.end()) {
    return it->second;
  }
  std::vector<uint32_t> call_stack{func};
  ComputeCosts(func, &call_stack);
  return costs_.find(func)->second;
}

uint64_t DistanceCalculator::FunctionCost(uint32_t func) {
  const ir::Function& fn = module_->Func(func);
  if (fn.is_external) {
    return 1;
  }
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!Sealed()) {
    lock.lock();
  }
  Costs(func);
  return function_cost_[func];
}

uint64_t DistanceCalculator::Dist2Ret(ir::InstRef at) {
  const ir::Function& fn = module_->Func(at.func);
  if (fn.is_external || at.block >= fn.blocks.size()) {
    return kInfDistance;
  }
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!Sealed()) {
    lock.lock();
  }
  const FuncCosts& fc = Costs(at.func);
  size_t n = fn.blocks[at.block].insts.size();
  uint64_t prefix = at.inst >= n
                        ? fc.block_cost[at.block]
                        : fc.inst_prefix[fc.block_start[at.block] + at.inst];
  uint64_t e = fc.exit_dist[at.block];
  if (e >= kInfDistance) {
    return kInfDistance;
  }
  return e > prefix ? e - prefix : 0;
}

uint64_t DistanceCalculator::OpportunityCost(
    uint32_t func, uint32_t block, uint32_t inst, ir::InstRef goal,
    const std::map<uint32_t, uint64_t>& entry) {
  if (func == goal.func && block == goal.block && inst == goal.inst) {
    return 0;
  }
  const ir::Instruction* in = module_->Func(func).InstAt(block, inst);
  if (in == nullptr || in->op != ir::Opcode::kCall) {
    return kInfDistance;
  }
  uint64_t best = kInfDistance;
  for (uint32_t g : EntryTargets(*in)) {
    auto it = entry.find(g);
    if (it != entry.end()) {
      best = std::min(best, SatAdd(1, it->second));
    }
  }
  return best;
}

const DistanceCalculator::GoalTable& DistanceCalculator::GetGoalTable(
    uint32_t func, ir::InstRef goal) {
  auto pg = goal_tables_.find(goal);
  if (pg != goal_tables_.end()) {
    auto hit = pg->second.find(func);
    if (hit != pg->second.end()) {
      return hit->second;
    }
  }
  // Miss: un-prewarmed goal (mu_ held; see EntryDistances) or pre-seal
  // lazy fill. Sealed fills go to the overflow map.
  auto& per_goal = (Sealed() ? overflow_goal_tables_ : goal_tables_)[goal];
  auto it = per_goal.find(func);
  if (it != per_goal.end()) {
    return it->second;
  }
  stats_.goal_tables.fetch_add(1, std::memory_order_relaxed);
  const std::map<uint32_t, uint64_t>& entry = EntryDistances(goal);
  const ir::Function& fn = module_->Func(func);
  const FuncCosts& fc = Costs(func);
  const Cfg& cfg = GetCfg(func);

  // One backward dataflow run computes both tables: the per-block fixpoint
  // snapshots are the end-of-block distances (min over successor blocks),
  // and folding each block from its snapshot yields the per-instruction
  // distances D[j] = min(opportunity(j), cost(j) + D[j+1]) that DistanceFrom
  // serves. SatAdd distributes over min, so the worklist fixpoint equals
  // the Dijkstra relaxation this replaced, bit for bit.
  GoalTable table;
  table.goal_dist.assign(fn.blocks.size(), kInfDistance);
  table.inst_dist.assign(fc.inst_cost.size() + fn.blocks.size(), kInfDistance);
  if (!fn.blocks.empty() && !fn.is_external) {
    GoalDistPolicy policy{this,   func,          goal,
                          &entry, &fc.inst_cost, &fc.block_start};
    DataflowEngine<GoalDistPolicy> engine(fn, cfg, Direction::kBackward,
                                          &policy);
    engine.Run();
    for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
      size_t base = fc.block_start[b] + b;
      size_t n = fn.blocks[b].insts.size();
      // The flow-entry snapshot of a backward analysis is the state after
      // the terminator: the best distance via a successor block.
      table.inst_dist[base + n] = engine.EntryState(b);
      engine.FoldBlock(b, [&](uint32_t j, const uint64_t& s) {
        table.inst_dist[base + j] = s;
      });
      table.goal_dist[b] =
          n == 0 ? engine.EntryState(b) : table.inst_dist[base];
    }
  }
  return per_goal.emplace(func, std::move(table)).first->second;
}

const std::map<uint32_t, uint64_t>& DistanceCalculator::EntryDistances(
    ir::InstRef goal) {
  auto cached = entry_dists_.find(goal);
  if (cached != entry_dists_.end()) {
    return cached->second;
  }
  // Miss: the goal was not prewarmed, so mu_ is held (FastFor was false in
  // every public entry point). Once sealed, fill the overflow map so the
  // lock-free readers of the primary map never observe a rebalance.
  auto& store = Sealed() ? overflow_entry_dists_ : entry_dists_;
  if (Sealed()) {
    auto oc = store.find(goal);
    if (oc != store.end()) {
      return oc->second;
    }
  }
  std::map<uint32_t, uint64_t> entry;
  // Fixed point: E(f) can only shrink as more call-entry paths are found.
  size_t rounds = module_->NumFunctions() + 2;
  for (size_t round = 0; round < rounds; ++round) {
    bool changed = false;
    for (uint32_t f = 0; f < module_->NumFunctions(); ++f) {
      const ir::Function& fn = module_->Func(f);
      if (fn.is_external || fn.blocks.empty()) {
        continue;
      }
      // Uncached goal-distance fixpoint with the current E: the entry
      // block's end-to-end state is this function's candidate E(f).
      const FuncCosts& fc = Costs(f);
      const Cfg& cfg = GetCfg(f);
      GoalDistPolicy policy{this,   f,             goal,
                            &entry, &fc.inst_cost, &fc.block_start};
      DataflowEngine<GoalDistPolicy> engine(fn, cfg, Direction::kBackward,
                                            &policy);
      engine.Run();
      uint64_t e = engine.ExitState(0);
      auto it = entry.find(f);
      if (e < kInfDistance && (it == entry.end() || e < it->second)) {
        entry[f] = e;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
  return store.emplace(goal, std::move(entry)).first->second;
}

void DistanceCalculator::Prewarm(const std::vector<ir::InstRef>& goals) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Seal the shared context first: every CFG and def index is built here,
  // so post-Prewarm context lookups are lock-free for all analyses.
  ctx_->PrewarmAll();
  // Every function — externals included, so a sealed-cache lookup can never
  // miss and fall into an unlocked fill (externals get empty CFG/cost
  // tables, matching their early-return query semantics).
  for (uint32_t f = 0; f < module_->NumFunctions(); ++f) {
    (void)Costs(f);
  }
  // Invalid targets (malformed coredumps produce them) are prewarmed too:
  // the critical-edge filter still issues queries for them, and a cache
  // miss during the parallel search would otherwise go through the locked
  // overflow path on every query.
  for (const ir::InstRef& goal : goals) {
    (void)EntryDistances(goal);
    for (uint32_t f = 0; f < module_->NumFunctions(); ++f) {
      (void)GetGoalTable(f, goal);
    }
  }
  if (!Sealed()) {
    prewarmed_goals_.insert(goals.begin(), goals.end());
    // Release-publish the now-complete primary caches: queries for these
    // goals bypass the mutex from here on. A second Prewarm call (none in
    // the current pipeline) warms the overflow caches under the lock
    // instead, since prewarmed_goals_ must stay frozen once readers may
    // exist.
    sealed_.store(true, std::memory_order_release);
  }
}

uint64_t DistanceCalculator::DistanceFrom(uint32_t func, uint32_t block, uint32_t inst,
                                          ir::InstRef goal) {
  stats_.distance_queries.fetch_add(1, std::memory_order_relaxed);
  const ir::Function& fn = module_->Func(func);
  if (fn.is_external || block >= fn.blocks.size()) {
    return kInfDistance;
  }
  const FuncCosts& fc = Costs(func);
  const GoalTable& table = GetGoalTable(func, goal);
  // Precomputed at table-build time: best opportunity at or after `inst`
  // within this block, or the remaining suffix plus a successor table.
  size_t n = fn.blocks[block].insts.size();
  size_t j = inst < n ? inst : n;
  return table.inst_dist[fc.block_start[block] + block + j];
}

uint64_t DistanceCalculator::Distance(ir::InstRef at, ir::InstRef goal) {
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!FastFor(goal)) {
    lock.lock();
  }
  return DistanceFrom(at.func, at.block, at.inst, goal);
}

uint64_t DistanceCalculator::ThreadDistance(const std::vector<ir::InstRef>& stack,
                                            ir::InstRef goal) {
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!FastFor(goal)) {
    lock.lock();
  }
  if (stack.empty()) {
    return kInfDistance;
  }
  // Line 1: the current frame may reach the goal directly.
  uint64_t dmin = Distance(stack.back(), goal);
  // Lines 2-6: or the goal is reached after returning to a caller. We make
  // the return cost cumulative across intermediate frames.
  uint64_t ret_cost = Dist2Ret(stack.back());
  for (size_t k = stack.size() - 1; k-- > 0;) {
    if (ret_cost >= kInfDistance) {
      break;
    }
    // stack[k] is the caller's return address (its pc was advanced past the
    // call before the callee frame was pushed).
    uint64_t cand = SatAdd(SatAdd(ret_cost, 1), Distance(stack[k], goal));
    dmin = std::min(dmin, cand);
    ret_cost = SatAdd(ret_cost, SatAdd(1, Dist2Ret(stack[k])));
  }
  return dmin;
}

bool DistanceCalculator::ThreadCanReachGoal(const std::vector<ir::InstRef>& stack,
                                            uint32_t block, ir::InstRef goal) {
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!FastFor(goal)) {
    lock.lock();
  }
  if (stack.empty()) {
    return false;
  }
  uint32_t func = stack.back().func;
  const ir::Function& fn = module_->Func(func);
  if (fn.is_external || block >= fn.blocks.size()) {
    return false;
  }
  const GoalTable& table = GetGoalTable(func, goal);
  if (table.goal_dist[block] < kInfDistance) {
    return true;
  }
  // Escape by returning: walk the actual caller frames. Each must itself be
  // able to return (or reach the goal from its return address).
  if (Costs(func).exit_dist[block] >= kInfDistance) {
    return false;
  }
  for (size_t k = stack.size() - 1; k-- > 0;) {
    if (Distance(stack[k], goal) < kInfDistance) {
      return true;
    }
    if (Dist2Ret(stack[k]) >= kInfDistance) {
      return false;
    }
  }
  return false;
}

uint64_t DistanceCalculator::module_digest() const {
  return ir::ModuleDigest(*module_);
}

const DistanceCalculator::FuncCosts& DistanceCalculator::CostsForTest(
    uint32_t func) {
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!Sealed()) {
    lock.lock();
  }
  return Costs(func);
}

const DistanceCalculator::GoalTable& DistanceCalculator::GoalTableForTest(
    uint32_t func, ir::InstRef goal) {
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!FastFor(goal)) {
    lock.lock();
  }
  return GetGoalTable(func, goal);
}

const std::map<uint32_t, uint64_t>& DistanceCalculator::EntryDistancesForTest(
    ir::InstRef goal) {
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!FastFor(goal)) {
    lock.lock();
  }
  return EntryDistances(goal);
}

bool DistanceCalculator::CanReachGoal(uint32_t func, uint32_t block, ir::InstRef goal,
                                      bool allow_return) {
  std::unique_lock<std::recursive_mutex> lock(mu_, std::defer_lock);
  if (!FastFor(goal)) {
    lock.lock();
  }
  const ir::Function& fn = module_->Func(func);
  if (fn.is_external || block >= fn.blocks.size()) {
    return false;
  }
  const GoalTable& table = GetGoalTable(func, goal);
  if (table.goal_dist[block] < kInfDistance) {
    return true;
  }
  if (allow_return) {
    const FuncCosts& fc = Costs(func);
    return fc.exit_dist[block] < kInfDistance;
  }
  return false;
}

}  // namespace esd::analysis
