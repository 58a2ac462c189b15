#include "src/analysis/cfg.h"
#include "src/analysis/range_analysis.h"
#include "src/ir/passes/passes.h"

namespace esd::ir::passes {

// Rewrites kCondBr to kBr when the taken edge is statically known: the
// condition's range is pinned to a single boolean, or both edges lead to
// the same block. The branch instruction stays in its slot (one dynamic
// step either way), so traces are unchanged; the search, however, stops
// forking states at the dead edge.
Rewrites FindBranchElisions(const Module& m, const ProtectedSites& prot) {
  Rewrites elisions;
  for (uint32_t f = 0; f < m.NumFunctions(); ++f) {
    const Function& fn = m.Func(f);
    if (fn.is_external || fn.blocks.empty()) {
      continue;
    }
    analysis::Cfg cfg(m, f);
    analysis::RangeAnalysis ranges(fn, cfg);
    for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
      if (fn.blocks[b].insts.empty()) {
        continue;
      }
      uint32_t last = static_cast<uint32_t>(fn.blocks[b].insts.size() - 1);
      const Instruction& term = fn.blocks[b].insts[last];
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
      Instruction br = term;
      br.op = Opcode::kBr;
      br.succ_true = target;
      br.succ_false = kInvalidIndex;
      br.operands.clear();
      elisions.emplace_back(InstRef{f, b, last}, std::move(br));
    }
  }
  return elisions;
}

}  // namespace esd::ir::passes
