#include <optional>
#include <vector>

#include "src/core/event_counters.h"
#include "src/ir/passes/passes.h"
#include "src/ir/verifier.h"

namespace esd::ir::passes {
namespace {

// Per-block instruction counts for every function: the coordinate-stability
// fingerprint. No pass may change a block's size, so any deviation means a
// pass moved an instruction and the optimized module can no longer stand
// in for the original during search.
using BlockSizes = std::vector<std::vector<size_t>>;  // [func][block]

BlockSizes BlockSizesOf(const Module& m) {
  BlockSizes sizes(m.NumFunctions());
  for (uint32_t f = 0; f < m.NumFunctions(); ++f) {
    for (const BasicBlock& bb : m.Func(f).blocks) {
      sizes[f].push_back(bb.insts.size());
    }
  }
  return sizes;
}

// Runs one pass and counts it. A pass that rewrote something must leave a
// module that verifies and keeps the pre-pipeline block sizes. Returns the
// rewrite count, or nothing when that check failed.
std::optional<uint64_t> RunChecked(
    uint64_t (*pass)(Module*, const ProtectedSites&, PassStats*), Module* m,
    const ProtectedSites& prot, PassStats* stats, const BlockSizes& before) {
  uint64_t n = pass(m, prot, stats);
  CountEvent(&EventCounters::ir_passes_run);
  if (n > 0 && (!Verify(*m).empty() || BlockSizesOf(*m) != before)) {
    return std::nullopt;
  }
  return n;
}

}  // namespace

bool PassManager::Run(Module* m, const ProtectedSites& prot,
                      PassStats* stats) {
  PassStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  const BlockSizes before = BlockSizesOf(*m);
  if (!RunChecked(BranchElidePass, m, prot, stats, before)) {
    return false;
  }
  // Each round neutralizes the definitions the previous one left unused.
  for (;;) {
    std::optional<uint64_t> n = RunChecked(DcePass, m, prot, stats, before);
    if (!n) {
      return false;
    }
    if (*n == 0) {
      return true;
    }
  }
}

}  // namespace esd::ir::passes
