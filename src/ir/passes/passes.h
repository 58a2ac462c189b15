// Pre-synthesis IR optimization pipeline.
//
// The synthesizer copies the module, optimizes the copy, and searches on
// it; the execution file it emits is replayed against the ORIGINAL module.
// Every pass therefore preserves two invariants:
//
//   1. Coordinate stability. The (function, block, instruction) address of
//      every instruction is unchanged — execution files record scheduler
//      switches by step index and happens-before sites by
//      "func:block:inst" locator, and goals are extracted before
//      optimization. No pass inserts, removes, or reorders instructions.
//   2. Trace equality. Any execution of the optimized module performs the
//      same dynamic instruction sequence (same (func, block, inst) at every
//      step) as the original. Passes only rewrite *within* instruction
//      slots: condbr becomes br toward the edge it provably takes, and dead
//      arithmetic is neutralized in place.
//
// The sequence is fixed: branch elision runs once, then dead-arithmetic
// neutralization repeats until it rewrites nothing. A neutralized result
// has no users, so it feeds no branch and the two passes reach a joint
// fixpoint. After every pass that rewrote something, the pass manager runs
// the verifier and checks that every block kept its size; a failure aborts
// the pipeline and the synthesizer falls back to the original module.
#ifndef ESD_SRC_IR_PASSES_PASSES_H_
#define ESD_SRC_IR_PASSES_PASSES_H_

#include <cstdint>
#include <set>

#include "src/ir/module.h"

namespace esd::ir::passes {

// Code the pipeline must keep intact: goal instructions and any other
// sites an execution file may reference.
struct ProtectedSites {
  // Functions holding a protected site. No pass reads it; perfbench/main.cc
  // is the only code that still fills it.
  std::set<uint32_t> funcs;
  std::set<InstRef> sites;  // Instructions left untouched by every pass.

  bool IsProtectedSite(uint32_t f, uint32_t b, uint32_t i) const {
    return sites.count(InstRef{f, b, i}) > 0;
  }
};

struct PassStats {
  uint64_t elided_branches = 0;    // kCondBr rewritten to kBr.
  uint64_t neutralized_insts = 0;  // Dead arithmetic re-pointed at zeros.

  uint64_t TotalRewrites() const { return elided_branches + neutralized_insts; }
};

// Each pass mutates `m` in place, bumps its PassStats category, and
// returns the number of rewrites it performed.
//
// Branch elision: a condbr whose condition range is pinned to one boolean,
// or whose edges agree, becomes a br toward the edge it takes.
uint64_t BranchElidePass(Module* m, const ProtectedSites& prot,
                         PassStats* stats);
// Dead-arithmetic neutralization: pure arithmetic whose result has no user
// gets its operands re-pointed at zeros. One run sees only the uses left
// before it, so a chain of dead definitions needs one run per link.
uint64_t DcePass(Module* m, const ProtectedSites& prot, PassStats* stats);

class PassManager {
 public:
  // Runs the pipeline. Returns true on success; false when a verifier or
  // coordinate-check failure aborted it (the module may then be partially
  // rewritten — callers should discard it and use the original). `stats`
  // (optional) accumulates rewrite counts.
  bool Run(Module* m, const ProtectedSites& prot, PassStats* stats = nullptr);
};

}  // namespace esd::ir::passes

#endif  // ESD_SRC_IR_PASSES_PASSES_H_
