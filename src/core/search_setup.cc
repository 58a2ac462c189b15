#include "src/core/search_setup.h"

#include <cstdio>

#include "src/analysis/reaching_defs.h"
#include "src/core/deadlock_strategy.h"
#include "src/core/race_strategy.h"

namespace esd::core {

uint64_t WorkerSeed(const SynthesisOptions& options, size_t worker) {
  // Worker 0 keeps the user's seed; the rest are decorrelated from it.
  return worker == 0 ? options.seed
                     : options.seed + worker * 0x9e3779b97f4a7c15ull;
}

std::unique_ptr<vm::Searcher> MakeWorkerSearcher(
    size_t worker, const SynthesisOptions& options,
    analysis::DistanceCalculator* distances,
    const std::vector<ProximitySearcher::SearchGoal>& search_goals,
    std::string* strategy) {
  // One logical frontier, partitioned by fingerprint: every worker runs the
  // same strategy over its share of the interleaving classes.
  if (!options.use_proximity) {
    *strategy = "coop-bfs";
    return std::make_unique<vm::BfsSearcher>();
  }
  ProximitySearcher::Options popts;
  popts.seed = WorkerSeed(options, worker);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "coop-proximity(seed=%llu)",
                static_cast<unsigned long long>(popts.seed));
  *strategy = buf;
  return std::make_unique<ProximitySearcher>(distances, search_goals, popts);
}

solver::SolverOptions MakeSolverOptions(const SynthesisOptions& options,
                                        solver::SharedSolverCache* shared_cache) {
  solver::SolverOptions sopts;
  sopts.slice = options.solver_slice;
  sopts.range = options.solver_range;
  sopts.incremental = options.solver_incremental;
  sopts.shared_cache = shared_cache;
  return sopts;
}

std::vector<ProximitySearcher::SearchGoal> BuildSearchGoals(
    const ir::Module& module, analysis::DistanceCalculator& distances,
    const Goal& goal, bool use_intermediate_goals, size_t* intermediate_count) {
  std::vector<ProximitySearcher::SearchGoal> search_goals;
  for (const ThreadGoal& tg : goal.threads) {
    search_goals.push_back(ProximitySearcher::SearchGoal{tg.target, tg.tid});
  }
  if (use_intermediate_goals) {
    for (const ThreadGoal& tg : goal.threads) {
      auto sets = analysis::DeriveIntermediateGoals(module, distances, tg.target);
      for (const analysis::IntermediateGoalSet& set : sets) {
        // Each disjunctive set contributes one virtual queue per candidate
        // store; reaching any of them is progress toward the critical edge.
        for (const ir::InstRef& store : set.stores) {
          search_goals.push_back(ProximitySearcher::SearchGoal{
              store, ProximitySearcher::SearchGoal::kAnyThread});
          if (intermediate_count != nullptr) {
            ++*intermediate_count;
          }
        }
      }
    }
  }
  return search_goals;
}

std::vector<ir::InstRef> GoalTargets(
    const std::vector<ProximitySearcher::SearchGoal>& search_goals) {
  std::vector<ir::InstRef> targets;
  targets.reserve(search_goals.size());
  for (const ProximitySearcher::SearchGoal& g : search_goals) {
    targets.push_back(g.target);
  }
  return targets;
}

std::function<bool(const vm::ExecutionState&, ir::InstRef, uint32_t)>
MakeCriticalEdgeFilter(const Goal* goal, analysis::DistanceCalculator* distances) {
  return [goal, distances](const vm::ExecutionState& state, ir::InstRef /*site*/,
                           uint32_t target) {
    std::vector<ir::InstRef> stack;
    for (const vm::StackFrame& f : state.CurrentThread().frames) {
      stack.push_back(ir::InstRef{f.func, f.block, f.inst});
    }
    const ThreadGoal* tg = goal->ForThread(state.current_tid);
    if (tg != nullptr) {
      return distances->ThreadCanReachGoal(stack, target, tg->target);
    }
    if (goal->HasWildcardThreads()) {
      // Any thread may fill a wildcard role: the edge is useful if it can
      // still reach any wildcard target (or the thread can exit, letting
      // others fill the roles).
      for (const ThreadGoal& wildcard : goal->threads) {
        if (wildcard.tid == kAnyTid &&
            distances->ThreadCanReachGoal(stack, target, wildcard.target)) {
          return true;
        }
      }
      // Still fine if this thread merely finishes while others deadlock.
      return true;
    }
    // A thread outside the goal set: its own path matters only while some
    // goal thread has not been created yet — it must still be able to
    // reach the thread_create that spawns it (EntryTargets makes spawn
    // sites count as entries into the spawned function).
    for (const ThreadGoal& goal_thread : goal->threads) {
      bool exists = false;
      for (const vm::Thread& t : state.threads) {
        if (t.id == goal_thread.tid) {
          exists = true;
          break;
        }
      }
      if (!exists) {
        return distances->ThreadCanReachGoal(stack, target, goal_thread.target);
      }
    }
    return true;  // All goal threads already exist.
  };
}

std::unique_ptr<vm::SchedulePolicy> MakeSchedulePolicy(const Goal& goal,
                                                       bool enable_race_detection,
                                                       vm::RaceDetector* detector,
                                                       bool* want_races,
                                                       bool sleep_sets) {
  bool races = enable_race_detection || goal.kind == vm::BugInfo::Kind::kAssertFail;
  if (want_races != nullptr) {
    *want_races = races;
  }
  std::unique_ptr<vm::SchedulePolicy> policy;
  if (goal.kind == vm::BugInfo::Kind::kDeadlock) {
    policy = std::make_unique<DeadlockStrategy>(goal);
  } else if (races) {
    policy = std::make_unique<RaceStrategy>(goal, detector);
  }
  if (policy != nullptr) {
    policy->set_sleep_sets(sleep_sets);
  }
  return policy;
}

}  // namespace esd::core
