#include "src/core/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/search_setup.h"
#include "src/core/seed_schedule.h"
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
  uint64_t seed_best_prefix = 0;
};

}  // namespace

SynthesisResult RunPortfolio(
    const ir::Module* module, const Goal& goal,
    analysis::DistanceCalculator* distances,
    const std::vector<ProximitySearcher::SearchGoal>& search_goals,
    const SynthesisOptions& options) {
  SynthesisResult result;
  const size_t jobs = options.jobs;
  // Cooperative mode: one logical work-stealing frontier drained by all
  // workers, instead of `jobs` racing frontiers (see synthesizer.h).
  const bool coop = options.cooperative && jobs > 1;
  auto start_time = std::chrono::steady_clock::now();

  auto main_fn = module->FindFunction("main");
  if (!main_fn.has_value()) {
    result.failure_reason = "program has no main function";
    return result;
  }

  // Make every lazy table any worker can touch hot, so the shared
  // DistanceCalculator is read-only from here on (see distance.h). Charged
  // to the reported wall clock (start_time is already running) but outside
  // the engine time cap: on modules large enough for prewarming all
  // (function, goal) tables to rival the cap, prefer `jobs 1`, which fills
  // them lazily, capped, for only the pairs the search touches.
  distances->Prewarm(GoalTargets(search_goals));

  // The prototype initial state. Workers fork it copy-on-write; keeping the
  // prototype alive for the whole run pins shared MemoryObjects at
  // use_count >= 2, so no worker can mutate a shared object in place.
  solver::ConstraintSolver proto_solver;
  vm::Interpreter proto_interp(module, &proto_solver, {});
  vm::StatePtr prototype = proto_interp.MakeInitialState(*main_fn, 0);

  std::atomic<bool> cancel{false};
  std::atomic<int> winner{-1};
  std::atomic<uint64_t> shared_instructions{0};
  std::atomic<uint64_t> shared_states{0};
  // Visited-fingerprint table for state dedup: one table shared by every
  // worker (sharded mutexes; a duplicate found by any worker prunes it for
  // all) or one private table per worker (no cross-worker synchronization).
  // bench_pruning measures both configurations.
  vm::FingerprintTable shared_visited;
  std::vector<std::unique_ptr<vm::FingerprintTable>> private_visited(jobs);
  if (options.dedup && !options.dedup_shared && !coop) {
    for (auto& table : private_visited) {
      table = std::make_unique<vm::FingerprintTable>();
    }
  }
  // Cooperative frontier: per-worker deques behind one routing/stealing
  // protocol. Unused (but cheap) when racing.
  vm::SharedFrontier frontier(jobs, options.seed);
  // Solver pipeline stage 2 (shared): one query/counterexample cache shared
  // by every worker's ConstraintSolver. Workers chase the same goal through
  // the same program, so one worker's solve short-circuits the others'
  // identical component queries (--solver-cache-private opts out; each
  // solver still keeps its private caches either way). A daemon-owned
  // external cache (options.shared_solver_cache) replaces the run-local
  // one, so answers also persist across jobs.
  solver::SharedSolverCache local_solver_cache;
  solver::SharedSolverCache* shared_cache_ptr = nullptr;
  if (options.solver_cache_shared) {
    shared_cache_ptr = options.shared_solver_cache != nullptr
                           ? options.shared_solver_cache
                           : &local_solver_cache;
  }

  std::vector<WorkerOutcome> outcomes(jobs);
  auto worker_body = [&](size_t w) {
    WorkerOutcome& out = outcomes[w];
    out.report.seed = WorkerSeed(options, w);
    // Every hot-path CountEvent on this thread lands in the worker's own
    // report — no shared state, no locks (see event_counters.h).
    ScopedEventCounters counter_scope(&out.report.counters);

    solver::ConstraintSolver solver(MakeSolverOptions(options, shared_cache_ptr));
    vm::RaceDetector race_detector;
    bool want_races = false;
    std::unique_ptr<vm::SchedulePolicy> policy =
        MakeSchedulePolicy(goal, options.enable_race_detection, &race_detector,
                           &want_races, options.sleep_sets);

    vm::Interpreter::Options iopts;
    iopts.policy = policy.get();
    iopts.race_detector = want_races ? &race_detector : nullptr;
    iopts.store_buffer = options.store_buffer;
    if (options.use_critical_edges) {
      iopts.branch_filter = MakeCriticalEdgeFilter(&goal, distances);
    }
    vm::Interpreter interpreter(module, &solver, iopts);
    if (coop) {
      // Worker w allocates state ids w+1, w+1+jobs, ... so ids stay unique
      // across workers even when states migrate between frontiers.
      interpreter.ConfigureStateIds(w + 1, jobs);
    }

    std::unique_ptr<vm::Searcher> searcher = MakeWorkerSearcher(
        w, jobs, coop, options, distances, search_goals, &out.report.strategy);
    // Incremental re-synthesis: every worker biases toward the prior
    // execution's schedule (see seed_schedule.h); frontier partitioning
    // still diversifies what each one explores beyond the seed.
    SeedScheduleSearcher* seed_searcher = nullptr;
    if (options.seed_schedule != nullptr &&
        !options.seed_schedule->strict.empty()) {
      auto wrapped = std::make_unique<SeedScheduleSearcher>(
          std::move(searcher), options.seed_schedule);
      seed_searcher = wrapped.get();
      searcher = std::move(wrapped);
    }

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
      // Cooperative runs always share the table: ownership routing assumes
      // one table records each interleaving class exactly once.
      eopts.visited = (options.dedup_shared || coop) ? &shared_visited
                                                     : private_visited[w].get();
    }
    if (coop) {
      eopts.frontier = &frontier;
      eopts.worker = w;
      eopts.workers = jobs;
    }

    vm::Engine engine(&interpreter, searcher.get(), eopts);
    engine.set_unexpected_bug_callback(
        [&out](const vm::ExecutionState&, const vm::BugInfo& bug) {
          out.other_bugs.push_back(std::string(vm::BugKindName(bug.kind)) + ": " +
                                   bug.message);
        });
    engine.Start(prototype->Fork(interpreter.AllocStateId()));

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
        // This worker won the race: stop the others, then finish its
        // pipeline — solve the path constraints and build the file (§5.1).
        cancel.store(true, std::memory_order_relaxed);
        out.report.winner = true;
        out.report.status = "goal";
        solver::Model model;
        if (solver.IsSatisfiable(run.goal_state->constraints, &model)) {
          out.solved = true;
          out.bug = run.bug;
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
    if (seed_searcher != nullptr) {
      out.seed_best_prefix = seed_searcher->best_prefix();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (size_t w = 0; w < jobs; ++w) {
    threads.emplace_back(worker_body, w);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 start_time)
                       .count();

  // Merge portfolio-wide accounting.
  bool any_limit = false;
  for (size_t w = 0; w < jobs; ++w) {
    WorkerOutcome& out = outcomes[w];
    result.instructions += out.report.instructions;
    result.states_created += out.report.states_created;
    result.states_deduped += out.report.states_deduped;
    result.sleep_set_skips += out.report.sleep_set_skips;
    result.counters.Add(out.report.counters);
    result.solver.Accumulate(out.solver_stats);
    for (std::string& bug : out.other_bugs) {
      result.other_bugs.push_back(std::move(bug));
    }
    any_limit |= out.status == vm::Engine::Result::Status::kLimitReached;
    result.seed_best_prefix = std::max(result.seed_best_prefix, out.seed_best_prefix);
    result.workers.push_back(std::move(out.report));
  }
  if (options.seed_schedule != nullptr) {
    result.seed_switches = options.seed_schedule->strict.size();
  }

  int win = winner.load();
  if (win < 0) {
    result.failure_reason = any_limit
                                ? "search budget exhausted before reaching the goal"
                                : "search space exhausted without manifesting the goal";
    return result;
  }
  result.winning_worker = win;
  WorkerOutcome& best = outcomes[static_cast<size_t>(win)];
  if (!best.solved) {
    result.failure_reason = "goal state constraints unexpectedly unsatisfiable";
    return result;
  }
  result.success = true;
  result.bug = best.bug;
  result.file = std::move(best.file);
  return result;
}

}  // namespace esd::core
