// IR value-range analysis on the generic dataflow framework.
//
// A forward fixpoint computing, for every register, an unsigned interval
// guaranteed to contain its runtime value in every execution reaching its
// use. Registers are single-assignment and the IR has no phis, so the state
// maps register -> Interval, joined per-register by range-union; a register
// missing from the state is unconstrained (full width at its type).
//
// Consumers:
//   - the branch-elision pass (ir/passes): a kCondBr whose condition
//     interval is pinned to [1,1] or [0,0] always takes the same edge and
//     can be rewritten to kBr without changing any dynamic trace;
//   - interval_test.cc: soundness property tests (concrete VM evaluation
//     stays within the computed intervals).
//
// The analysis is intraprocedural and memory-oblivious: loads, call
// results, parameters, and pointers are full-range.
#ifndef ESD_SRC_ANALYSIS_RANGE_ANALYSIS_H_
#define ESD_SRC_ANALYSIS_RANGE_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/interval.h"
#include "src/ir/module.h"

namespace esd::analysis {

// Register intervals proven on entry to no-instruction context: the result
// of running the fixpoint over one function. Query with RangeOf.
class RangeAnalysis {
 public:
  // Runs the fixpoint immediately; `fn` and `cfg` must outlive the object.
  RangeAnalysis(const ir::Function& fn, const Cfg& cfg);

  // The interval of `v` just before instruction (block, inst) executes.
  // Constants are points; unconstrained or untracked values are full-range.
  Interval RangeOf(const ir::Value& v, uint32_t block, uint32_t inst) const;

  // The interval of register `reg` at the fixpoint state before
  // (block, inst); full-range when nothing was proven. Re-applies the
  // block's transfers from its entry state up to `inst`, so a query costs
  // O(inst) and the analysis keeps one state per block.
  Interval RegRange(uint32_t reg, uint32_t block, uint32_t inst) const;

  // One program point's knowledge. `reachable == false` is the lattice
  // bottom (no path reaches the point yet); in a reachable state a register
  // missing from `regs` is unconstrained (full range at its type). Public
  // for the transfer policy in range_analysis.cc.
  struct State {
    bool reachable = false;
    std::map<uint32_t, Interval> regs;
  };

 private:
  const ir::Function& fn_;
  // Fixpoint state on entry to each block (before its first instruction).
  std::vector<State> entry_;
};

}  // namespace esd::analysis

#endif  // ESD_SRC_ANALYSIS_RANGE_ANALYSIS_H_
