// ESD analysis: the proximity heuristic (paper Algorithm 1).
//
// Estimates, for an execution state, the least number of instructions that
// must execute before the state reaches a goal instruction. The estimate
// combines:
//   - intra-procedural shortest paths over the CFG, where a call instruction
//     costs 1 + the callee's min entry-to-return cost (lines 8-16);
//   - lifting over the call stack: the goal may be reached after returning
//     to a caller (lines 2-6, made cumulative across frames here);
//   - call-entry lifting: reaching a call site whose callee can reach the
//     goal counts as progress (the inter-procedural closure the paper's
//     prototype needs to guide a search that starts in main toward a goal
//     deep inside callees);
//   - recursion and unresolved indirect calls cost a fixed 1000 instructions
//     (§3.4).
// All tables are computed lazily per goal and cached — §6.2 calls this
// caching "crucial" since state selection happens at instruction granularity.
#ifndef ESD_SRC_ANALYSIS_DISTANCE_H_
#define ESD_SRC_ANALYSIS_DISTANCE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/context.h"
#include "src/ir/module.h"

namespace esd::analysis {

inline constexpr uint64_t kRecursionCost = 1000;

class DistanceCalculator {
 public:
  // When `ctx` is null the calculator owns a private AnalysisContext;
  // passing one in shares the per-module CFG cache with the other analyses.
  explicit DistanceCalculator(const ir::Module* module,
                              AnalysisContext* ctx = nullptr);

  // Min instructions from `func`'s entry to any of its returns (kInfDistance
  // if it cannot return).
  uint64_t FunctionCost(uint32_t func);

  // Min instructions from `at` to the nearest return of its function
  // (Algorithm 1, dist2ret).
  uint64_t Dist2Ret(ir::InstRef at);

  // Min instructions from `at` to `goal`, allowing descent into callees that
  // can reach the goal, but not returns (Algorithm 1 `distance`, plus
  // call-entry lifting).
  uint64_t Distance(ir::InstRef at, ir::InstRef goal);

  // Algorithm 1 top level: distance from a thread whose call stack is
  // `stack` (outermost first; back() is the current pc; caller frames hold
  // their return addresses) to `goal`.
  uint64_t ThreadDistance(const std::vector<ir::InstRef>& stack, ir::InstRef goal);

  // True if any path from `block` in `func` can still reach `goal`, either
  // intra-procedurally, by entering a callee, or by returning to an unknown
  // caller. With `allow_return=false` the return escape is not counted
  // (used for bottom frames, which have no caller).
  bool CanReachGoal(uint32_t func, uint32_t block, ir::InstRef goal,
                    bool allow_return);

  // Stack-aware variant used for the paper's path abandonment: can the
  // thread whose call stack is `stack` (outermost first; back() is the
  // current frame) still reach `goal` if its current frame continues from
  // `block`? Unlike CanReachGoal, returning is only an escape if some
  // *actual* caller frame can still reach the goal from its return address.
  bool ThreadCanReachGoal(const std::vector<ir::InstRef>& stack, uint32_t block,
                          ir::InstRef goal);

  const Cfg& GetCfg(uint32_t func);

  // The shared per-module analysis artifacts (CFGs, def indexes). Threaded
  // through every analysis that cooperates with this calculator.
  AnalysisContext& context() { return *ctx_; }

  // Populates every lazy cache reachable during a search over `goals`: CFGs
  // and cost tables for all defined functions, plus the per-goal entry
  // distances and goal tables. After Prewarm returns, queries for those
  // goals are pure cache reads — this is what lets the parallel portfolio
  // share one DistanceCalculator across workers (§6's static artifacts).
  //
  // Thread-safety contract: after the first Prewarm returns ("sealed"),
  // queries for prewarmed goals take a lock-free fast path — the sealed
  // caches are complete and never mutated again. Queries for goals *not*
  // passed to Prewarm fill *overflow* caches lazily under the internal
  // mutex, so they are safe from any thread (they serialize; the sealed
  // caches the fast path reads are untouched). Prewarm itself must finish
  // before concurrent queries start (the portfolio prewarms before
  // spawning workers).
  void Prewarm(const std::vector<ir::InstRef>& goals);

  struct Stats {
    // Atomic so concurrent (post-Prewarm) readers can count without racing.
    std::atomic<uint64_t> goal_tables{0};
    std::atomic<uint64_t> distance_queries{0};
  };
  const Stats& stats() const { return stats_; }

  struct FuncCosts {
    std::vector<uint64_t> inst_cost;    // Flattened per (block, inst).
    std::vector<uint64_t> inst_prefix;  // Sum of costs before inst (same layout).
    std::vector<uint64_t> block_cost;   // Sum of inst costs per block.
    std::vector<uint64_t> block_start;  // Offset of block b in inst_cost.
    std::vector<uint64_t> exit_dist;    // Min cost from block start to return.
  };

  // Per-goal tables for one function: min cost from block start to "goal
  // progress" (goal instruction or a call leading toward it).
  struct GoalTable {
    std::vector<uint64_t> goal_dist;  // Per block.
    // Min cost from each instruction (DistanceFrom's answer), flattened with
    // one extra end-of-block slot per block: block b occupies
    // [block_start[b] + b, block_start[b] + b + insts.size()], where the
    // last slot is the best distance via a successor block. Precomputed so
    // the per-instruction state-selection queries are single array reads
    // instead of a suffix scan over opportunity costs (§6.2).
    std::vector<uint64_t> inst_dist;
  };

  // Content digest of the module the tables are computed over (see
  // ir::ModuleDigest). Computed on each call, since no search needs it.
  uint64_t module_digest() const;

  // Cost of the "opportunity" at one instruction: 0 at the goal itself,
  // 1 + E(callee) at calls that lead toward the goal, infinite otherwise.
  // Public so the dataflow transfer policies (distance.cc) and the
  // port-equivalence reference implementation (tests/analysis_port_test.cc)
  // can evaluate it; call with the internal lock held or after Prewarm.
  uint64_t OpportunityCost(uint32_t func, uint32_t block, uint32_t inst,
                           ir::InstRef goal,
                           const std::map<uint32_t, uint64_t>& entry);

  // Test hooks for the port-equivalence suite: expose the fixpoint tables
  // so the pre-framework Dijkstra reference can be compared bit-for-bit.
  // Single-threaded use only (they take the fill lock like a cold query).
  const FuncCosts& CostsForTest(uint32_t func);
  const GoalTable& GoalTableForTest(uint32_t func, ir::InstRef goal);
  const std::map<uint32_t, uint64_t>& EntryDistancesForTest(ir::InstRef goal);

 private:
  const FuncCosts& Costs(uint32_t func);
  uint64_t InstCost(uint32_t func, const ir::Instruction& inst,
                    std::vector<uint32_t>* call_stack);
  void ComputeCosts(uint32_t func, std::vector<uint32_t>* call_stack);

  // Entry distance E(f): min cost from f's entry to the goal, via any mix of
  // intra paths and call entries. Computed as a fixed point over functions.
  const std::map<uint32_t, uint64_t>& EntryDistances(ir::InstRef goal);
  const GoalTable& GetGoalTable(uint32_t func, ir::InstRef goal);
  // Distance from a specific instruction using a goal table.
  uint64_t DistanceFrom(uint32_t func, uint32_t block, uint32_t inst,
                        ir::InstRef goal);

  std::vector<uint32_t> CallTargets(const ir::Instruction& inst) const;
  // Like CallTargets, but also treats thread_create(@fn, ...) as an entry
  // into @fn: spawning a thread is how execution "reaches" the code the
  // goal thread runs. Used for goal reachability, not for call costs.
  std::vector<uint32_t> EntryTargets(const ir::Instruction& inst) const;

  // True once Prewarm sealed the primary caches (then complete for every
  // function and every prewarmed goal, and read-only from there on).
  bool Sealed() const { return sealed_.load(std::memory_order_acquire); }
  // Lock-free fast path available: sealed, and `goal` was prewarmed.
  bool FastFor(const ir::InstRef& goal) const {
    return Sealed() && prewarmed_goals_.count(goal) > 0;
  }

  const ir::Module* module_;
  // Shared analysis artifacts (CFG cache, def indexes). Owned when the
  // caller did not pass a context of its own.
  std::unique_ptr<AnalysisContext> owned_ctx_;
  AnalysisContext* ctx_;
  // Guards every lazy fill. Recursive because the fill paths are mutually
  // recursive (GetGoalTable -> EntryDistances -> Costs -> GetCfg). After
  // Prewarm seals the primary caches, queries for prewarmed goals bypass
  // it entirely; only queries for other goals (possible with malformed
  // coredumps) take it and fill the overflow caches.
  mutable std::recursive_mutex mu_;
  std::atomic<bool> sealed_{false};
  std::set<ir::InstRef> prewarmed_goals_;  // Read-only once sealed.
  std::map<uint32_t, FuncCosts> costs_;
  std::map<uint32_t, uint64_t> function_cost_;
  std::vector<uint32_t> address_taken_;  // Candidate indirect-call targets.
  // goal -> (function -> tables). Once sealed, new goals fill the overflow
  // maps (under mu_) so fast-path readers of the primary maps never race
  // with a rebalance.
  std::map<ir::InstRef, std::map<uint32_t, GoalTable>> goal_tables_;
  std::map<ir::InstRef, std::map<uint32_t, uint64_t>> entry_dists_;
  std::map<ir::InstRef, std::map<uint32_t, GoalTable>> overflow_goal_tables_;
  std::map<ir::InstRef, std::map<uint32_t, uint64_t>> overflow_entry_dists_;
  Stats stats_;
};

}  // namespace esd::analysis

#endif  // ESD_SRC_ANALYSIS_DISTANCE_H_
