// ESD core: the search driver, for every `jobs` value.
//
// §6 credits copy-on-write state sharing for ESD's scalability; this module
// turns that into wall-clock speedup on multicore hardware. Each of the
// `jobs` workers runs a private Engine + Interpreter + ConstraintSolver +
// searcher, all built by one worker function; the calling thread runs
// worker 0 and jobs > 1 adds jobs - 1 helper threads. The workers drain one
// logical frontier (vm::SharedFrontier, src/vm/work_queue.h): forks are
// routed to a home worker by fingerprint, idle workers steal, and the run
// reports exhaustion only once the frontier drains with nothing in flight.
//
// Shared across workers, read-only: the ir::Module, the extracted Goal, the
// search-goal list, and one DistanceCalculator. Shared and mutable: one
// std::atomic cancellation flag (the first worker to manifest the goal wins
// and stops the rest), atomic instruction/state budgets so the run as a
// whole respects the SynthesisOptions limits, and the frontier.
//
// Only a parallel run sets up the rest, so `--jobs 1` pays for none of it
// and keeps its counts and execution files: the DistanceCalculator prewarm
// (one worker fills its tables lazily), the shared solver cache, which
// lives as long as the run (one worker keeps only its private caches), one
// RaceDetector shared with the fingerprint table (Engine::Options::
// dedup_races), the pinned prototype each worker's root is forked from
// (worker 0 of one starts from the initial state itself), and the
// per-worker reports.
//
// Memory safety of the state sharing: forks of the prototype share
// MemoryObjects through shared_ptr (atomic refcounts). A worker clones an
// object before writing whenever use_count > 1; the prototype keeps one
// reference alive for the whole run, so an object visible to two workers
// can never appear uniquely owned, and in-place mutation only ever happens
// on worker-private objects.
#ifndef ESD_SRC_CORE_PORTFOLIO_H_
#define ESD_SRC_CORE_PORTFOLIO_H_

#include "src/analysis/distance.h"
#include "src/core/goal.h"
#include "src/core/proximity_searcher.h"
#include "src/core/synthesizer.h"

namespace esd::core {

// Searches for `goal` with `options.jobs` workers and fills in `*result`:
// the verdict and execution file, the search and solver accounting (summed
// across workers), the event counters (added to what `*result` holds), and
// for jobs > 1 `workers` and `winning_worker`. `distances` must already be
// constructed for `module`; jobs > 1 prewarms it for `search_goals`. The
// set-up fields of `*result` (pass stats, intermediate goals, restored
// tables) are left as the caller filled them.
void RunPortfolio(const ir::Module* module, const Goal& goal,
                  analysis::DistanceCalculator* distances,
                  const std::vector<ProximitySearcher::SearchGoal>& search_goals,
                  const SynthesisOptions& options, SynthesisResult* result);

}  // namespace esd::core

#endif  // ESD_SRC_CORE_PORTFOLIO_H_
