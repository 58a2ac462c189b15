#include "src/core/synthesizer.h"

#include "src/analysis/distance.h"
#include "src/core/portfolio.h"
#include "src/core/search_setup.h"

namespace esd::core {

SynthesisResult Synthesizer::Synthesize(const report::CoreDump& dump) {
  // 1. Goal extraction (§3.1).
  Goal goal = ExtractGoal(*module_, dump);
  return SynthesizeGoal(goal);
}

SynthesisResult Synthesizer::SynthesizeGoal(const Goal& goal) {
  SynthesisResult result;
  if (goal.threads.empty()) {
    result.failure_reason = "no actionable thread goals";
    return result;
  }

  // 1b. Pre-synthesis IR optimization: copy the module, run the
  // trace-preserving pass pipeline on the copy, and search on it. Goal
  // coordinates need no remapping (coordinate stability) and the emitted
  // execution file replays against the original module. A verifier or
  // coordinate-check failure falls back to the unoptimized module.
  std::optional<ir::Module> optimized;
  const ir::Module* search_module = module_;
  // Setup-phase event sink: the pass pipeline and the static analyses run
  // before the per-worker sinks exist, so their events (ir_passes_run, the
  // intermediate goals' share of dataflow_iterations) are captured here and
  // merged into result.counters.
  EventCounters setup_counters;
  std::optional<ScopedEventCounters> setup_scope;
  setup_scope.emplace(&setup_counters);
  if (options_.ir_opt) {
    ir::passes::ProtectedSites prot;
    for (const ThreadGoal& tg : goal.threads) {
      if (tg.target.IsValid()) {
        prot.sites.insert(tg.target);
      }
      for (const ir::InstRef& frame : tg.stack) {
        if (frame.IsValid()) {
          prot.sites.insert(frame);
        }
      }
    }
    optimized = *module_;
    if (ir::passes::PassManager().Run(&*optimized, prot, &result.pass_stats)) {
      search_module = &*optimized;
    } else {
      optimized.reset();  // Pipeline aborted: search the original.
    }
  }

  // 2. Static phase (§3.2): distance tables, critical edges, intermediate
  // goals. Computed once over the search module and shared by every
  // worker.
  analysis::DistanceCalculator distances(search_module);
  std::vector<ProximitySearcher::SearchGoal> search_goals =
      BuildSearchGoals(*search_module, distances, goal,
                       options_.use_intermediate_goals,
                       &result.intermediate_goals);

  // 3–7. Search (§3.3, §4) with `jobs` workers, then solve the goal state's
  // path constraints into concrete inputs (§5.1) and emit the execution
  // file: see portfolio.h.
  setup_scope.reset();
  result.counters.Add(setup_counters);
  RunPortfolio(search_module, goal, &distances, search_goals, options_, &result);
  return result;
}

}  // namespace esd::core
