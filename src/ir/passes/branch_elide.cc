#include "src/analysis/cfg.h"
#include "src/analysis/range_analysis.h"
#include "src/ir/passes/passes.h"

namespace esd::ir::passes {

// Rewrites kCondBr to kBr when the taken edge is statically known: the
// condition's range is pinned to a single boolean, or both edges lead to
// the same block. The branch instruction stays in its slot (one dynamic
// step either way), so traces are unchanged; the search, however, stops
// forking states at the dead edge.
uint64_t BranchElidePass(Module* m, const ProtectedSites& prot,
                         PassStats* stats) {
  uint64_t elided = 0;
  for (uint32_t f = 0; f < m->NumFunctions(); ++f) {
    Function& fn = m->Func(f);
    if (fn.is_external || fn.blocks.empty()) {
      continue;
    }
    analysis::Cfg cfg(*m, f);
    analysis::RangeAnalysis ranges(fn, cfg);
    for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
      if (fn.blocks[b].insts.empty()) {
        continue;
      }
      uint32_t last = static_cast<uint32_t>(fn.blocks[b].insts.size() - 1);
      Instruction& term = fn.blocks[b].insts[last];
      if (term.op != Opcode::kCondBr || prot.IsProtectedSite(f, b, last)) {
        continue;
      }
      uint32_t target = kInvalidIndex;
      if (term.succ_true == term.succ_false) {
        target = term.succ_true;  // Degenerate: both edges agree.
      } else {
        analysis::Interval c = ranges.RangeOf(term.operands[0], b, last);
        if (c == analysis::Interval{1, 1}) {
          target = term.succ_true;
        } else if (c == analysis::Interval{0, 0}) {
          target = term.succ_false;
        }
      }
      if (target == kInvalidIndex) {
        continue;
      }
      term.op = Opcode::kBr;
      term.succ_true = target;
      term.succ_false = kInvalidIndex;
      term.operands.clear();
      ++elided;
    }
  }
  stats->elided_branches += elided;
  return elided;
}

}  // namespace esd::ir::passes
