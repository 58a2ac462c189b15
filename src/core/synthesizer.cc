#include "src/core/synthesizer.h"

#include "src/analysis/distance.h"
#include "src/core/portfolio.h"
#include "src/core/proximity_searcher.h"
#include "src/core/search_setup.h"
#include "src/core/seed_schedule.h"
#include "src/vm/engine.h"

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
  // before the per-worker sinks exist, so their events (ir_passes_run,
  // the Prewarm share of dataflow_iterations) are captured here and merged
  // into result.counters on both the portfolio and single-worker paths.
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
  // goals. Computed once over the search module; read-only during the
  // search (shared by every worker when jobs > 1).
  analysis::DistanceCalculator distances(search_module);
  // Service hooks: restore persisted tables while the caches are still cold
  // (a digest mismatch restores nothing), and export them — on every exit
  // path — once the search is over.
  if (options_.on_distances_ready) {
    options_.on_distances_ready(distances);
  }
  result.distance_tables_restored = distances.restored_tables();
  struct DistancesDoneGuard {
    const SynthesisOptions* options;
    analysis::DistanceCalculator* distances;
    ~DistancesDoneGuard() {
      if (options->on_distances_done) {
        options->on_distances_done(*distances);
      }
    }
  } distances_done{&options_, &distances};
  std::vector<ProximitySearcher::SearchGoal> search_goals =
      BuildSearchGoals(*search_module, distances, goal,
                       options_.use_intermediate_goals,
                       &result.intermediate_goals);

  // Parallel portfolio (jobs > 1): N engines race under a shared budget;
  // see portfolio.h. The jobs == 1 path below stays byte-identical to the
  // classic single-threaded engine.
  setup_scope.reset();
  if (options_.jobs > 1) {
    size_t intermediate_goals = result.intermediate_goals;
    uint64_t tables_restored = result.distance_tables_restored;
    ir::passes::PassStats pass_stats = result.pass_stats;
    result = RunPortfolio(search_module, goal, &distances, search_goals, options_);
    result.intermediate_goals = intermediate_goals;
    result.distance_tables_restored = tables_restored;
    result.pass_stats = pass_stats;
    result.counters.Add(setup_counters);
    return result;
  }

  result.counters.Add(setup_counters);
  // Hot-path event counters for the single-worker run: one sink on this
  // thread for the rest of the pipeline (jobs > 1 installs one per worker
  // inside the portfolio instead).
  ScopedEventCounters counter_scope(&result.counters);

  // 3. Search strategy (§3.3): proximity-guided selection over the virtual
  // queues, or plain BFS when the heuristic is disabled (ablation).
  std::unique_ptr<vm::Searcher> searcher;
  if (options_.use_proximity) {
    ProximitySearcher::Options popts;
    popts.seed = options_.seed;
    searcher = std::make_unique<ProximitySearcher>(&distances, search_goals, popts);
  } else {
    searcher = std::make_unique<vm::BfsSearcher>();
  }
  // Incremental re-synthesis: bias selection toward states replaying the
  // prior execution's schedule (see seed_schedule.h).
  SeedScheduleSearcher* seed_searcher = nullptr;
  if (options_.seed_schedule != nullptr &&
      !options_.seed_schedule->strict.empty()) {
    auto wrapped = std::make_unique<SeedScheduleSearcher>(
        std::move(searcher), options_.seed_schedule);
    seed_searcher = wrapped.get();
    searcher = std::move(wrapped);
    result.seed_switches = seed_searcher->seed_switches();
  }

  // 4. Schedule strategy by bug class (§4), with sleep-set pruning of
  // redundant schedule forks when enabled.
  vm::RaceDetector race_detector;
  bool want_races = false;
  std::unique_ptr<vm::SchedulePolicy> policy =
      MakeSchedulePolicy(goal, options_.enable_race_detection, &race_detector,
                         &want_races, options_.sleep_sets);

  // 5. Interpreter with critical-edge pruning: abandon branch edges from
  // which the current thread's goal is unreachable. The solver runs the
  // incremental pipeline per the solver_* toggles; with one worker the
  // only shared cache worth attaching is an external (cross-run) one.
  solver::ConstraintSolver solver(MakeSolverOptions(
      options_,
      options_.solver_cache_shared ? options_.shared_solver_cache : nullptr));
  vm::Interpreter::Options iopts;
  iopts.policy = policy.get();
  iopts.race_detector = want_races ? &race_detector : nullptr;
  iopts.store_buffer = options_.store_buffer;
  if (options_.use_critical_edges) {
    iopts.branch_filter = MakeCriticalEdgeFilter(&goal, &distances);
  }
  vm::Interpreter interpreter(search_module, &solver, iopts);

  auto main_fn = search_module->FindFunction("main");
  if (!main_fn.has_value()) {
    result.failure_reason = "program has no main function";
    return result;
  }

  vm::FingerprintTable visited;
  vm::Engine::Options eopts;
  eopts.time_cap_seconds = options_.time_cap_seconds;
  eopts.max_instructions = options_.max_instructions;
  eopts.max_states = options_.max_states;
  if (options_.dedup) {
    eopts.visited = &visited;
  }
  vm::Engine engine(&interpreter, searcher.get(), eopts);
  engine.set_unexpected_bug_callback(
      [&result](const vm::ExecutionState&, const vm::BugInfo& bug) {
        result.other_bugs.push_back(std::string(vm::BugKindName(bug.kind)) + ": " +
                                    bug.message);
      });
  engine.Start(interpreter.MakeInitialState(*main_fn, interpreter.AllocStateId()));

  // 6. Explore until the goal manifests.
  vm::Engine::Result run = engine.Run(
      [&goal](const vm::ExecutionState& state, const vm::BugInfo& bug) {
        return GoalMatches(goal, state, bug);
      });
  result.seconds = run.seconds;
  result.instructions = run.instructions;
  result.states_created = run.states_created;
  result.states_deduped = run.states_deduped;
  result.sleep_set_skips = policy != nullptr ? policy->sleep_set_skips() : 0;
  result.solver = solver.stats();
  if (seed_searcher != nullptr) {
    result.seed_best_prefix = seed_searcher->best_prefix();
  }

  if (run.status != vm::Engine::Result::Status::kGoalFound) {
    result.failure_reason =
        run.status == vm::Engine::Result::Status::kLimitReached
            ? "search budget exhausted before reaching the goal"
            : "search space exhausted without manifesting the goal";
    return result;
  }

  // 7. Solve the path constraints into concrete inputs (§5.1) and emit the
  // execution file.
  solver::Model model;
  bool solved = solver.IsSatisfiable(run.goal_state->constraints, &model);
  result.solver = solver.stats();  // Include the final model solve.
  if (!solved) {
    result.failure_reason = "goal state constraints unexpectedly unsatisfiable";
    return result;
  }
  result.success = true;
  result.bug = run.bug;
  // Coordinate stability makes the file valid against the original module
  // as well as the optimized copy it was searched on.
  result.file =
      replay::BuildExecutionFile(*search_module, *run.goal_state, run.bug, model);
  return result;
}

}  // namespace esd::core
