// ESD core: search-configuration helpers.
//
// The pieces of the synthesis pipeline the synthesizer (synthesizer.cc)
// and each search worker (portfolio.cc) build from the options: the
// search-goal list derived from the extracted goal, each worker's searcher
// and solver options, the critical-edge branch filter (§3.3 path
// abandonment), and the per-bug-class schedule policy (§4).
#ifndef ESD_SRC_CORE_SEARCH_SETUP_H_
#define ESD_SRC_CORE_SEARCH_SETUP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/distance.h"
#include "src/core/goal.h"
#include "src/core/proximity_searcher.h"
#include "src/core/synthesizer.h"
#include "src/vm/interpreter.h"
#include "src/vm/race_detector.h"
#include "src/vm/schedule_policy.h"
#include "src/vm/searcher.h"

namespace esd::core {

// Worker `worker`'s RNG seed: worker 0 keeps the user's seed, so `--jobs 1`
// searches with it; the rest are decorrelated.
uint64_t WorkerSeed(const SynthesisOptions& options, size_t worker);

// Builds worker `worker`'s searcher and writes a description of it to
// `*strategy`. Every worker runs the same strategy (proximity, or BFS when
// proximity is ablated): coverage diversity comes from frontier
// partitioning, and the per-worker seeds re-score stolen states
// deterministically on arrival.
std::unique_ptr<vm::Searcher> MakeWorkerSearcher(
    size_t worker, const SynthesisOptions& options,
    analysis::DistanceCalculator* distances,
    const std::vector<ProximitySearcher::SearchGoal>& search_goals,
    std::string* strategy);

// Maps the SynthesisOptions solver toggles onto solver::SolverOptions.
// `shared_cache` (may be null) is the cache shared by the workers of one run.
solver::SolverOptions MakeSolverOptions(const SynthesisOptions& options,
                                        solver::SharedSolverCache* shared_cache);

// Builds the per-thread final goals plus (optionally) the §3.2 intermediate
// goals derived by static analysis. `intermediate_count`, when non-null,
// receives the number of intermediate goals appended.
std::vector<ProximitySearcher::SearchGoal> BuildSearchGoals(
    const ir::Module& module, analysis::DistanceCalculator& distances,
    const Goal& goal, bool use_intermediate_goals, size_t* intermediate_count);

// The distance targets a search over `search_goals` can query: used to
// prewarm the shared DistanceCalculator before parallel workers start.
std::vector<ir::InstRef> GoalTargets(
    const std::vector<ProximitySearcher::SearchGoal>& search_goals);

// The §3.3 critical-edge branch filter: returns false for branch edges from
// which the current thread's goal is unreachable. `goal` and `distances`
// must outlive the returned function. Thread-safe once `distances` has been
// prewarmed for every goal target.
std::function<bool(const vm::ExecutionState&, ir::InstRef, uint32_t)>
MakeCriticalEdgeFilter(const Goal* goal, analysis::DistanceCalculator* distances);

// The §4 schedule strategy for the goal's bug class (deadlock or race), or
// null when no strategy applies. `detector` must outlive the policy.
// `want_races` receives whether the lockset detector should run.
// `sleep_sets` enables sleep-set pruning of redundant schedule forks.
std::unique_ptr<vm::SchedulePolicy> MakeSchedulePolicy(const Goal& goal,
                                                       bool enable_race_detection,
                                                       vm::RaceDetector* detector,
                                                       bool* want_races,
                                                       bool sleep_sets = false);

}  // namespace esd::core

#endif  // ESD_SRC_CORE_SEARCH_SETUP_H_
