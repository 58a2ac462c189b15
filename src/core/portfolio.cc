#include "src/core/portfolio.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/search_setup.h"
#include "src/replay/execution_file.h"
#include "src/solver/query_cache.h"
#include "src/vm/engine.h"
#include "src/vm/work_queue.h"

namespace esd::core {
namespace {

// Everything one worker produces; written only by its own thread.
struct WorkerOutcome {
  WorkerReport report;
  vm::Engine::Result::Status status = vm::Engine::Result::Status::kExhausted;
  bool solved = false;  // Winner only: constraints solved, file built.
  replay::ExecutionFile file;
  vm::BugInfo bug;
  std::vector<std::string> other_bugs;
  solver::ConstraintSolver::Stats solver_stats;
};

// The initial state every worker's root is forked from at jobs > 1. The
// caller keeps it alive for the whole run, which pins shared MemoryObjects
// at use_count >= 2, so no worker can mutate a shared object in place.
vm::StatePtr MakePrototype(const ir::Module* module, uint32_t main_fn) {
  solver::ConstraintSolver solver;
  vm::Interpreter interpreter(module, &solver, {});
  return interpreter.MakeInitialState(main_fn, 0);
}

}  // namespace

void RunPortfolio(const ir::Module* module, const Goal& goal,
                  analysis::DistanceCalculator* distances,
                  const std::vector<ProximitySearcher::SearchGoal>& search_goals,
                  const SynthesisOptions& options, SynthesisResult* result) {
  const size_t jobs = options.jobs;
  const bool parallel = jobs > 1;
  auto start_time = std::chrono::steady_clock::now();

  auto main_fn = module->FindFunction("main");
  if (!main_fn.has_value()) {
    result->stop = SynthesisResult::Stop::kError;
    result->failure_reason = "program has no main function";
    return;
  }

  // Solver pipeline stage 2 (shared): at jobs > 1, one query/
  // counterexample cache shared by every worker's ConstraintSolver, so one
  // worker's solve short-circuits the others' identical component queries
  // (--solver-cache-private opts out; each solver keeps its private caches
  // either way).
  std::unique_ptr<solver::SharedSolverCache> shared_cache;
  vm::StatePtr prototype;
  if (parallel) {
    // Make every lazy table any worker can touch hot, so the shared
    // DistanceCalculator is read-only from here on (see distance.h).
    // Charged to the reported wall clock (start_time is already running)
    // but outside the engine time cap: on modules large enough for
    // prewarming all (function, goal) tables to rival the cap, prefer
    // `jobs 1`, which fills them lazily, capped, for only the pairs the
    // search touches.
    distances->Prewarm(GoalTargets(search_goals));
    prototype = MakePrototype(module, *main_fn);
    if (options.solver_cache_shared) {
      shared_cache = std::make_unique<solver::SharedSolverCache>();
    }
  }

  std::atomic<bool> cancel{false};
  std::atomic<int> winner{-1};
  std::atomic<uint64_t> shared_instructions{0};
  std::atomic<uint64_t> shared_states{0};
  // Visited-fingerprint table for state dedup, shared by every worker
  // (sharded mutexes): a duplicate found by any worker prunes it for all,
  // and ownership routing relies on one table recording each interleaving
  // class exactly once.
  vm::FingerprintTable visited;
  // The race strategy forks at the sites the lockset detector has flagged,
  // and that set is not in a state's fingerprint. So workers that share the
  // fingerprint table also share one detector, whose set only grows, and
  // its size is part of every key they record (Engine::Options::
  // dedup_races): a state is pruned only by one recorded under the same
  // flagged sites, whichever worker ran it. One worker's own detector
  // already meets that, and without dedup each worker keeps its own.
  const bool share_races = parallel && options.dedup;
  vm::RaceDetector shared_races;
  vm::SharedFrontier frontier(jobs, options.seed);

  std::vector<WorkerOutcome> outcomes(jobs);
  auto worker_body = [&](size_t w) {
    WorkerOutcome& out = outcomes[w];
    out.report.seed = WorkerSeed(options, w);
    // Every hot-path CountEvent on this thread lands in the worker's own
    // report — no shared state, no locks (see event_counters.h).
    ScopedEventCounters counter_scope(&out.report.counters);

    solver::ConstraintSolver solver(
        MakeSolverOptions(options, shared_cache.get()));
    vm::RaceDetector own_races;
    vm::RaceDetector* races = share_races ? &shared_races : &own_races;
    bool want_races = false;
    std::unique_ptr<vm::SchedulePolicy> policy =
        MakeSchedulePolicy(goal, options.enable_race_detection, races,
                           &want_races, options.sleep_sets);

    vm::Interpreter::Options iopts;
    iopts.policy = policy.get();
    iopts.race_detector = want_races ? races : nullptr;
    iopts.store_buffer = options.store_buffer;
    if (options.use_critical_edges) {
      iopts.branch_filter = MakeCriticalEdgeFilter(&goal, distances);
    }
    vm::Interpreter interpreter(module, &solver, iopts);
    // Worker w allocates state ids w+1, w+1+jobs, ... so ids stay unique
    // across workers even when states migrate between frontiers.
    interpreter.ConfigureStateIds(w + 1, jobs);

    std::unique_ptr<vm::Searcher> searcher = MakeWorkerSearcher(
        w, options, distances, search_goals, &out.report.strategy);

    vm::Engine::Options eopts;
    eopts.time_cap_seconds = options.time_cap_seconds;
    eopts.max_instructions = options.max_instructions;
    eopts.max_states = options.max_states;
    eopts.cancel = &cancel;
    eopts.shared_instructions = &shared_instructions;
    eopts.shared_max_instructions = options.max_instructions;
    eopts.shared_states = &shared_states;
    eopts.shared_max_states = options.max_states;
    if (options.dedup) {
      eopts.visited = &visited;
    }
    if (share_races) {
      eopts.dedup_races = iopts.race_detector;
    }
    eopts.frontier = &frontier;
    eopts.worker = w;
    eopts.workers = jobs;

    vm::Engine engine(&interpreter, searcher.get(), eopts);
    engine.set_unexpected_bug_callback(
        [&out](const vm::ExecutionState&, const vm::BugInfo& bug) {
          out.other_bugs.push_back(std::string(vm::BugKindName(bug.kind)) + ": " +
                                   bug.message);
        });
    // Each worker at jobs > 1 starts from its own root; the shared table
    // collapses the duplicate roots' subtrees as they meet.
    engine.Start(parallel ? prototype->Fork(interpreter.AllocStateId())
                          : interpreter.MakeInitialState(
                                *main_fn, interpreter.AllocStateId()));

    vm::Engine::Result run = engine.Run(
        [&goal](const vm::ExecutionState& state, const vm::BugInfo& bug) {
          return GoalMatches(goal, state, bug);
        });
    out.status = run.status;
    out.report.seconds = run.seconds;
    out.report.instructions = run.instructions;
    out.report.states_created = run.states_created;
    out.report.states_deduped = run.states_deduped;
    out.report.sleep_set_skips =
        policy != nullptr ? policy->sleep_set_skips() : 0;

    if (run.status == vm::Engine::Result::Status::kGoalFound) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, static_cast<int>(w))) {
        // This worker reached the goal first: stop the others, then finish
        // its pipeline — solve the path constraints and build the file
        // (§5.1).
        cancel.store(true, std::memory_order_relaxed);
        out.report.winner = true;
        out.report.status = "goal";
        solver::Model model;
        if (solver.IsSatisfiable(run.goal_state->constraints, &model)) {
          out.solved = true;
          out.bug = run.bug;
          // Coordinate stability makes the file valid against the original
          // module as well as the optimized copy it was searched on.
          out.file =
              replay::BuildExecutionFile(*module, *run.goal_state, run.bug, model);
        } else {
          out.report.status = "error";
        }
      } else {
        out.report.status = "goal(lost)";  // Another worker claimed first.
      }
    } else if (run.status == vm::Engine::Result::Status::kCancelled) {
      out.report.status = "cancelled";
    } else if (run.status == vm::Engine::Result::Status::kLimitReached) {
      out.report.status = "limit";
    } else {
      out.report.status = "exhausted";
    }
    out.report.solver_queries = solver.stats().queries;
    out.report.solver_shared_hits = solver.stats().shared_hits;
    out.report.sat_conflicts = solver.stats().sat_conflicts;
    out.solver_stats = solver.stats();
  };

  std::vector<std::thread> helpers;
  helpers.reserve(jobs - 1);
  for (size_t w = 1; w < jobs; ++w) {
    helpers.emplace_back(worker_body, w);
  }
  try {
    worker_body(0);
  } catch (...) {
    // The helpers use this frame's state: stop and join them first.
    cancel.store(true, std::memory_order_relaxed);
    for (std::thread& t : helpers) {
      t.join();
    }
    throw;
  }
  for (std::thread& t : helpers) {
    t.join();
  }
  // See SynthesisResult::seconds for the two meanings.
  result->seconds = parallel ? std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start_time)
                                   .count()
                             : outcomes[0].report.seconds;

  // Merge run-wide accounting.
  bool any_limit = false;
  for (WorkerOutcome& out : outcomes) {
    result->instructions += out.report.instructions;
    result->states_created += out.report.states_created;
    result->states_deduped += out.report.states_deduped;
    result->sleep_set_skips += out.report.sleep_set_skips;
    result->counters.Add(out.report.counters);
    result->solver.Accumulate(out.solver_stats);
    for (std::string& bug : out.other_bugs) {
      result->other_bugs.push_back(std::move(bug));
    }
    any_limit |= out.status == vm::Engine::Result::Status::kLimitReached;
    if (parallel) {
      result->workers.push_back(std::move(out.report));
    }
  }
  int win = winner.load();
  if (win < 0) {
    result->stop = any_limit ? SynthesisResult::Stop::kBudget
                             : SynthesisResult::Stop::kExhausted;
    result->failure_reason = any_limit
                                 ? "search budget exhausted before reaching the goal"
                                 : "search space exhausted without manifesting the goal";
    return;
  }
  if (parallel) {
    result->winning_worker = win;
  }
  WorkerOutcome& best = outcomes[static_cast<size_t>(win)];
  if (!best.solved) {
    result->stop = SynthesisResult::Stop::kError;
    result->failure_reason = "goal state constraints unexpectedly unsatisfiable";
    return;
  }
  result->stop = SynthesisResult::Stop::kGoal;
  result->success = true;
  result->bug = best.bug;
  result->file = std::move(best.file);
}

}  // namespace esd::core
