// ESD core: the execution synthesizer.
//
// The top of the pipeline (the esdsynth usage model of §8): given a program
// and a coredump, extract the goal, run the static analyses, configure the
// guided search and the bug-class schedule strategy, explore until a state
// manifests the reported bug, then solve the path constraints into concrete
// inputs and emit the execution file for playback.
//
// Every search builds its own distance tables over the module it searches
// (lazily at jobs == 1, prewarmed at jobs > 1; portfolio.h) and its own
// solver caches. Nothing outside the search reads or seeds them; the
// service reuses only prior executions (the hook at the end of
// SynthesisOptions).
//
// The options toggles exist for the ablation study (bench_ablation): each
// disables one of the three §3.3 focusing techniques.
#ifndef ESD_SRC_CORE_SYNTHESIZER_H_
#define ESD_SRC_CORE_SYNTHESIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/event_counters.h"
#include "src/core/goal.h"
#include "src/ir/passes/passes.h"
#include "src/replay/execution_file.h"
#include "src/report/coredump.h"
#include "src/solver/solver.h"

namespace esd::core {

struct SynthesisOptions {
  double time_cap_seconds = 180.0;
  uint64_t max_instructions = 50'000'000;
  size_t max_states = 200'000;
  uint64_t seed = 1;
  // Search workers (§6 scalability; src/core/portfolio.h). Every value
  // runs the same driver: the calling thread is worker 0 and N > 1 adds
  // N - 1 helper threads, each with its own engine, searcher and solver,
  // all draining one logical work-stealing frontier (src/vm/work_queue.h):
  // forks are routed to a home worker by fingerprint ownership hashing,
  // idle workers steal from busy peers, and the run only reports
  // exhaustion once the shared frontier drains with nothing in flight. The
  // instruction/state budgets above are shared run-wide.
  size_t jobs = 1;
  // §3.3 focusing techniques (ablation switches):
  bool use_proximity = true;           // Proximity-guided state selection.
  bool use_intermediate_goals = true;  // Static anchor points (§3.2).
  bool use_critical_edges = true;      // Path abandonment / edge pruning.
  // §4.2: run the lockset detector even for non-race bugs.
  bool enable_race_detection = false;
  // TSO store-buffer modeling for C11 atomics: relaxed atomic stores sit in
  // a per-thread buffer and each possible flush point becomes a schedule
  // fork, making stale-read interleavings reachable. --no-store-buffer
  // restores sequentially consistent atomics (every store writes through).
  bool store_buffer = true;
  // ---- Redundant-interleaving pruning ----
  // State deduplication: drop schedule forks / prune states whose 64-bit
  // fingerprint (pcs + registers + memory + sync objects + constraints) was
  // already explored. Counted in SynthesisResult::states_deduped. With
  // jobs > 1 all workers share one table (behind sharded mutexes).
  bool dedup = true;
  // Sleep sets: a schedule fork's child records the preempted (thread, op)
  // pair and skips re-forking it until a dependent operation wakes it.
  bool sleep_sets = true;
  // ---- Incremental constraint-solving pipeline (see src/solver/solver.h) --
  // Stage 1: partition each query into independent components over shared
  // variables; solve and cache per component.
  bool solver_slice = true;
  // Stage 4: assumption-based incremental SAT (persistent session keeping
  // learned clauses and bit-blasted circuits across queries).
  bool solver_incremental = true;
  // Stage 2: at jobs > 1, one query/counterexample cache shared by all
  // workers (sharded mutexes) instead of per-worker caches only;
  // cross-worker hits are counted per worker.
  bool solver_cache_shared = true;
  // Stage 3: interval value-range discharge of guard constraints before
  // bit-blasting (src/solver/range.h).
  bool solver_range = true;
  // ---- Pre-synthesis IR optimization (src/ir/passes) ----
  // Copy the module, run the trace-preserving pass pipeline on the copy,
  // and search on the optimized copy. Emitted execution files stay valid
  // against the original module (coordinate stability). --no-ir-opt.
  bool ir_opt = true;
  // ---- Synthesis-service hook (src/serve, the esdserved daemon) ----
  // Incremental re-synthesis: a previously synthesized execution file for
  // this bug (possibly against a pre-patch module). The search seeds from
  // its schedule — states whose switch history matches the longest prefix
  // of the seed's thread sequence are selected first (seed_schedule.h);
  // deviating states fall back to the configured strategy, so a stale seed
  // degrades to a cold search instead of misleading it.
  const replay::ExecutionFile* seed_schedule = nullptr;
};

// Per-worker accounting for a parallel run (`jobs` > 1).
struct WorkerReport {
  std::string strategy;  // e.g. "coop-proximity(seed=3)" or "coop-bfs".
  uint64_t seed = 0;
  bool winner = false;
  // "goal" (winner), "goal(lost)" (reached the goal but another worker
  // claimed the win first), "cancelled", "limit", "exhausted", or "error".
  std::string status;
  double seconds = 0.0;
  uint64_t instructions = 0;
  uint64_t states_created = 0;
  uint64_t states_deduped = 0;
  uint64_t sleep_set_skips = 0;
  uint64_t solver_queries = 0;
  // Shared-solver-cache hits answered by another worker's solve.
  uint64_t solver_shared_hits = 0;
  uint64_t sat_conflicts = 0;
  // Hot-path event counters collected by this worker's thread-local sink
  // (state forks, COW page copies, frontier traffic, ...).
  EventCounters counters;
};

struct SynthesisResult {
  // Why the search stopped.
  enum class Stop {
    kGoal,       // A state manifested the goal and its constraints solved
                 // into an execution file (`success`).
    kExhausted,  // The search space drained without manifesting the goal.
                 // The verdict rests on every pruning being sound: dedup,
                 // sleep sets, IR branch elision and the solver range
                 // stage's UNSAT proofs.
    kBudget,     // A time, instruction or state budget ended the search
                 // first. This decides nothing about the goal.
    kError,      // The search could not run (no main, no actionable goal)
                 // or its goal state failed to solve.
  };

  bool success = false;
  Stop stop = Stop::kError;
  replay::ExecutionFile file;
  vm::BugInfo bug;
  // Human-readable form of a failed `stop`.
  std::string failure_reason;
  // Bugs encountered that did not match the goal ("ESD has discovered a
  // different bug": recorded and search resumed).
  std::vector<std::string> other_bugs;

  // At jobs == 1, the Engine::Run time: search only, without set-up or the
  // final model solve (perfbench splits core.setup from vm.search on it).
  // At jobs > 1, the wall time from the DistanceCalculator prewarm to the
  // last worker's exit, the winner's model solve included
  // (bench_portfolio's gated ratio divides by it).
  double seconds = 0.0;
  uint64_t instructions = 0;    // Summed across workers when jobs > 1.
  uint64_t states_created = 0;  // Summed across workers when jobs > 1.
  // Pruning accounting (both summed across workers when jobs > 1): states
  // dropped as already-visited duplicates, and schedule forks skipped
  // because the target operation was sleeping.
  uint64_t states_deduped = 0;
  uint64_t sleep_set_skips = 0;
  size_t intermediate_goals = 0;
  // Full solver-pipeline accounting (queries, cache layers, components,
  // and the underlying SAT effort), summed across workers when jobs > 1.
  // esdsynth prints this so bench regressions are diagnosable from tool
  // output.
  solver::ConstraintSolver::Stats solver;
  // Hot-path event counters, summed across workers when jobs > 1. Printed
  // by `esdsynth --counters` and embedded in the BENCH_*.json emitters.
  EventCounters counters;

  // Pre-synthesis IR pipeline accounting: rewrite counts per category.
  ir::passes::PassStats pass_stats;

  // Per-worker accounting (empty / -1 for jobs == 1).
  std::vector<WorkerReport> workers;
  int winning_worker = -1;

  // Incremental re-synthesis accounting (seed_schedule runs only): switch
  // points in the seed schedule, and the longest prefix of it any live
  // state replayed.
  uint64_t seed_switches = 0;
  uint64_t seed_best_prefix = 0;
};

class Synthesizer {
 public:
  Synthesizer(const ir::Module* module, SynthesisOptions options)
      : module_(module), options_(options) {}

  // Synthesizes an execution manifesting the bug in `dump`.
  SynthesisResult Synthesize(const report::CoreDump& dump);

  // Synthesizes directly from a goal (no coredump): the entry point for
  // validating static-analysis warnings, which arrive as goal sites without
  // thread identities (§8).
  SynthesisResult SynthesizeGoal(const Goal& goal);

 private:
  const ir::Module* module_;
  SynthesisOptions options_;
};

}  // namespace esd::core

#endif  // ESD_SRC_CORE_SYNTHESIZER_H_
