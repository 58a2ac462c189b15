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

// The one pipeline behind both Run overloads. Each pass finds its rewrites
// on the current module: `m` until the first rewrite, then the module
// `writable()` returns, which the first rewrite asks for (it may be a copy
// of `m`). A pass that rewrote something must leave a module that verifies
// and keeps the pre-pipeline block sizes. Returns false when that check
// failed.
template <typename Writable>
bool RunPipeline(const Module& m, const ProtectedSites& prot, PassStats* stats,
                 Writable writable) {
  PassStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  const Module* current = &m;
  Module* out = nullptr;
  BlockSizes before;
  // Runs one pass and counts it. Returns the rewrite count, or nothing when
  // the check failed.
  auto run = [&](Rewrites (*find)(const Module&, const ProtectedSites&),
                 uint64_t PassStats::*counter) -> std::optional<size_t> {
    Rewrites rewrites = find(*current, prot);
    CountEvent(&EventCounters::ir_passes_run);
    stats->*counter += rewrites.size();
    if (rewrites.empty()) {
      return 0;
    }
    if (out == nullptr) {
      before = BlockSizesOf(m);
      out = writable();
      current = out;
    }
    ApplyRewrites(rewrites, out);
    if (!Verify(*out).empty() || BlockSizesOf(*out) != before) {
      return std::nullopt;
    }
    return rewrites.size();
  };
  if (!run(FindBranchElisions, &PassStats::elided_branches)) {
    return false;
  }
  // Each round neutralizes the definitions the previous one left unused.
  for (;;) {
    std::optional<size_t> n = run(FindDeadArithmetic, &PassStats::neutralized_insts);
    if (!n) {
      return false;
    }
    if (*n == 0) {
      return true;
    }
  }
}

}  // namespace

void ApplyRewrites(const Rewrites& rewrites, Module* m) {
  for (const auto& [site, inst] : rewrites) {
    m->Func(site.func).blocks[site.block].insts[site.inst] = inst;
  }
}

const Module* PassManager::Run(const Module& m, const ProtectedSites& prot,
                               PassStats* stats, std::optional<Module>* copy) {
  copy->reset();
  if (RunPipeline(m, prot, stats, [&] { return &copy->emplace(m); }) &&
      copy->has_value()) {
    return &**copy;
  }
  copy->reset();  // Nothing rewritten, or a check failed: search `m`.
  return &m;
}

bool PassManager::Run(Module* m, const ProtectedSites& prot,
                      PassStats* stats) {
  return RunPipeline(*m, prot, stats, [m] { return m; });
}

}  // namespace esd::ir::passes
