// ESD solver: the facade used by the symbolic-execution engine.
//
// Answers satisfiability and implication queries over path constraints and
// produces concrete models (the program inputs ESD reports). Mirrors the
// role STP plays under KLEE in the paper's prototype.
//
// Queries run through a four-stage incremental pipeline (all on by default;
// SolverOptions gates slicing, the shared cache, range and incremental SAT).
// Constraints are solved as the interpreter built them: the expr.h
// factories fold constant subtrees, constant-true constraints are skipped,
// and a constant-false one decides the query before any stage runs.
//
//   1. slice       — the constraint set is partitioned into connected
//                    components over shared symbolic variables (KLEE-style
//                    independence); each component is solved and cached on
//                    its own, so unrelated path constraints no longer
//                    perturb cache keys. Slicing reads each constraint's
//                    variables from the summary its root node carries
//                    (expr.h) and works in flat vectors; only a constraint
//                    over more variables than a node holds inline is
//                    walked.
//   2. cache       — a counterexample cache (the last model, re-checked by
//                    cheap evaluation against the whole query before
//                    slicing), a bounded per-solver query cache,
//                    and optionally a shared portfolio cache
//                    (query_cache.h) consulted by every `--jobs N` worker.
//   3. range       — interval value-range discharge (range.h): per
//                    component, after the caches miss, refine variable
//                    ranges from ult/ule-vs-constant conjuncts and their
//                    negations, pin a variable to its only value under an
//                    eq over a bijective chain (x * odd + c == magic),
//                    refute constraints whose interval is provably false,
//                    and probe the refined point as a concrete witness.
//                    Guard chains decided here never reach bit-blasting.
//   4. incremental — cache misses hit a persistent SatSolver + BitBlaster
//                    session: constraints become assumption literals
//                    (SatSolver::SolveAssuming), so learned clauses and
//                    variable activity survive across queries and shared
//                    subtrees are bit-blasted once per search, not once per
//                    query.
#ifndef ESD_SRC_SOLVER_SOLVER_H_
#define ESD_SRC_SOLVER_SOLVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/solver/expr.h"
#include "src/solver/sat.h"

namespace esd::solver {

class SharedSolverCache;  // query_cache.h

// A satisfying assignment: symbolic-variable id -> concrete value. Variables
// absent from the map are unconstrained (any value works; use 0).
struct Model {
  std::map<uint64_t, uint64_t> values;
  // Names for reporting: id -> input name (filled from the vars seen).
  std::map<uint64_t, std::string> names;

  uint64_t ValueOf(uint64_t var_id) const {
    auto it = values.find(var_id);
    return it == values.end() ? 0 : it->second;
  }
};

// Gates for the pipeline stages above. The defaults are the fast path;
// the switches exist for the bench_solver ablation and esdsynth's
// --no-solver-* flags.
struct SolverOptions {
  bool slice = true;        // Stage 1: independence partitioning.
  bool range = true;        // Stage 3: interval value-range discharge.
  bool incremental = true;  // Stage 4: assumption-based SAT session.
  // Stage 2, portfolio only: cache shared across workers (not owned).
  SharedSolverCache* shared_cache = nullptr;
};

class ConstraintSolver {
 public:
  ConstraintSolver();
  explicit ConstraintSolver(const SolverOptions& options);
  ~ConstraintSolver();

  // Is the conjunction of `constraints` satisfiable? Fills `model` (may be
  // null) on success.
  bool IsSatisfiable(const std::vector<ExprRef>& constraints, Model* model = nullptr);

  // May `cond` be true/false given `constraints`?
  bool MayBeTrue(const std::vector<ExprRef>& constraints, const ExprRef& cond);
  bool MayBeFalse(const std::vector<ExprRef>& constraints, const ExprRef& cond);
  // Is `cond` implied by `constraints`?
  bool MustBeTrue(const std::vector<ExprRef>& constraints, const ExprRef& cond);

  // Upper bound on query-cache entries. A long search issues millions of
  // distinct queries; an unbounded cache grows monotonically for the whole
  // run (and, with one solver per portfolio worker, once per worker). At
  // the cap the oldest entry is evicted FIFO — recent queries are the ones
  // the counterexample cache misses and the search re-asks.
  static constexpr size_t kQueryCacheCap = 1 << 16;

  // Incremental-session bound: past this many accumulated clauses the
  // persistent SatSolver/BitBlaster session is discarded and rebuilt lazily
  // (learned clauses are an accelerator, not state the answers depend on).
  static constexpr size_t kSessionClauseCap = 1 << 20;

  struct Stats {
    uint64_t queries = 0;
    uint64_t cache_hits = 0;
    uint64_t cex_hits = 0;  // Counterexample-cache fast-path hits.
    uint64_t sat_calls = 0;
    uint64_t sliced_constraints = 0;  // Dropped by independence slicing.
    uint64_t cache_evictions = 0;     // FIFO evictions at kQueryCacheCap.
    // ---- Pipeline counters ----
    uint64_t components = 0;       // Independent components processed.
    // Range stage (3): components that reached it / decided by it. The
    // bench_passes gate asserts range_discharged / range_checked >= 0.30
    // on the guard-heavy arithmetic workloads.
    uint64_t range_checked = 0;     // Components interval-analyzed.
    uint64_t range_discharged = 0;  // Decided without a SAT call (either way).
    uint64_t range_unsat = 0;       // Of those, refuted as always-false.
    uint64_t shared_hits = 0;      // Cross-worker shared-cache hits.
    uint64_t session_resets = 0;   // Incremental sessions discarded at cap.
    // ---- Underlying SAT effort (accumulated across Solve calls) ----
    uint64_t sat_conflicts = 0;
    uint64_t sat_decisions = 0;
    uint64_t sat_propagations = 0;
    uint64_t sat_learned = 0;

    // Sums `other` into this (portfolio-wide merging).
    void Accumulate(const Stats& other);
  };
  const Stats& stats() const { return stats_; }

  // Current query-cache occupancy (always <= kQueryCacheCap).
  size_t query_cache_size() const { return query_cache_.size(); }

  // KLEE-style constraint independence: the subset of `constraints` that
  // transitively shares symbolic variables with `cond`. For branch
  // feasibility queries the other constraints are irrelevant — they are
  // satisfiable by path-consistency — so only the related slice is solved.
  static std::vector<ExprRef> IndependentSlice(const std::vector<ExprRef>& constraints,
                                               const ExprRef& cond);

  // Partitions `constraints` into connected components over shared symbolic
  // variables: two constraints land in one component iff they are linked by
  // a chain of common variables. Components are independently satisfiable,
  // so the conjunction is SAT iff every component is (stage 1 above).
  static std::vector<std::vector<ExprRef>> PartitionIndependent(
      const std::vector<ExprRef>& constraints);

 private:
  struct SatSession;  // Persistent SatSolver + BitBlaster (solver.cc).

  // Solves one independent component, appending its values to `model` when
  // non-null. Routes through the incremental session or a one-shot solver
  // per options_.incremental.
  bool SolveComponent(const std::vector<ExprRef>& constraints, Model* model);

  size_t HashQuery(const std::vector<ExprRef>& constraints) const;

  void CacheInsert(size_t key, bool sat);

  SolverOptions options_;
  std::unordered_map<size_t, bool> query_cache_;
  std::deque<size_t> query_order_;  // Insertion order, for FIFO eviction.
  std::optional<Model> last_model_;
  std::unique_ptr<SatSession> session_;
  Stats stats_;
};

}  // namespace esd::solver

#endif  // ESD_SRC_SOLVER_SOLVER_H_
