#include "src/solver/solver.h"

#include <algorithm>
#include <cstddef>

#include "src/core/event_counters.h"
#include "src/solver/bitblast.h"
#include "src/solver/query_cache.h"
#include "src/solver/range.h"
#include "src/solver/sat.h"

namespace esd::solver {
namespace {

bool ModelSatisfies(const Model& model, const std::vector<ExprRef>& constraints) {
  for (const ExprRef& c : constraints) {
    if (EvalExpr(c, model.values) == 0) {
      return false;
    }
  }
  return true;
}

void MergeModel(const Model& from, Model* into) {
  into->values.insert(from.values.begin(), from.values.end());
  into->names.insert(from.names.begin(), from.names.end());
}

// SplitMix64 finalizer: decorrelates structural hashes before combining.
uint64_t MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

// The persistent incremental session (pipeline stage 4): one SatSolver whose
// learned clauses and activities accumulate, and one BitBlaster whose
// structural circuit cache spans queries.
struct ConstraintSolver::SatSession {
  SatSolver sat;
  BitBlaster blaster{&sat};
};

ConstraintSolver::ConstraintSolver() = default;

ConstraintSolver::ConstraintSolver(const SolverOptions& options)
    : options_(options) {}

ConstraintSolver::~ConstraintSolver() = default;

void ConstraintSolver::Stats::Accumulate(const Stats& other) {
  queries += other.queries;
  cache_hits += other.cache_hits;
  cex_hits += other.cex_hits;
  sat_calls += other.sat_calls;
  sliced_constraints += other.sliced_constraints;
  cache_evictions += other.cache_evictions;
  components += other.components;
  range_checked += other.range_checked;
  range_discharged += other.range_discharged;
  range_unsat += other.range_unsat;
  shared_hits += other.shared_hits;
  session_resets += other.session_resets;
  sat_conflicts += other.sat_conflicts;
  sat_decisions += other.sat_decisions;
  sat_propagations += other.sat_propagations;
  sat_learned += other.sat_learned;
}

size_t ConstraintSolver::HashQuery(const std::vector<ExprRef>& constraints) const {
  uint64_t h = 0x51ed270b;
  for (const ExprRef& c : constraints) {
    // Commutative but duplicate-sensitive: a wrapping sum of mixed hashes,
    // so permuted constraint sets still hit while repeated constraints do
    // not cancel (an XOR combine would make {C, C} collide with {D, D} for
    // any C and D — and a cached unsat served for the wrong set is a wrong
    // answer, not a slow one).
    h += MixHash(c->hash());
  }
  return static_cast<size_t>(h);
}

bool ConstraintSolver::IsSatisfiable(const std::vector<ExprRef>& constraints,
                                     Model* model) {
  ++stats_.queries;
  CountEvent(&EventCounters::solver_calls);
  // Drop constant-true constraints; a constant-false one decides the query
  // outright. No other simplification runs: the expr.h factories already
  // folded constant subtrees when the interpreter built each constraint.
  std::vector<ExprRef> live;
  live.reserve(constraints.size());
  for (const ExprRef& c : constraints) {
    if (c->IsFalse()) {
      return false;
    }
    if (!c->IsTrue()) {
      live.push_back(c);
    }
  }
  if (live.empty()) {
    if (model) {
      *model = Model{};
    }
    return true;
  }
  // Counterexample cache: the previous model often still satisfies the
  // (usually grown-by-one) constraint set.
  if (last_model_ && ModelSatisfies(*last_model_, live)) {
    ++stats_.cex_hits;
    if (model) {
      *model = *last_model_;
    }
    return true;
  }

  // Stage 1: connected components over shared variables. Each component is
  // cached and solved on its own, so a query differing from a past one only
  // in unrelated constraints still hits per-component.
  std::vector<std::vector<ExprRef>> components =
      options_.slice ? PartitionIndependent(live)
                     : std::vector<std::vector<ExprRef>>{live};
  stats_.components += components.size();

  Model merged;
  bool complete = true;  // False when some component's values were skipped.
  for (const std::vector<ExprRef>& comp : components) {
    size_t key = HashQuery(comp);
    // Stage 2a: per-solver query cache. A cached unsat answer decides the
    // whole conjunction even when a model was requested (there is nothing
    // to model); a cached sat answer suffices only when no values are
    // needed — otherwise fall through to the shared cache or a solve.
    if (auto it = query_cache_.find(key); it != query_cache_.end()) {
      if (!it->second) {
        ++stats_.cache_hits;
        return false;
      }
      if (model == nullptr) {
        ++stats_.cache_hits;
        complete = false;
        continue;
      }
    }
    // Stage 2b: shared portfolio cache. Models are re-validated by
    // evaluation before use, so a stale or colliding entry can never
    // produce a wrong assignment.
    if (options_.shared_cache != nullptr) {
      if (auto hit = options_.shared_cache->Lookup(key, this)) {
        bool usable = !hit->sat || model == nullptr ||
                      (hit->has_model && ModelSatisfies(hit->model, comp));
        if (usable) {
          if (hit->cross_worker) {
            ++stats_.shared_hits;
          } else {
            ++stats_.cache_hits;
          }
          CacheInsert(key, hit->sat);
          if (!hit->sat) {
            return false;
          }
          if (hit->has_model) {
            MergeModel(hit->model, &merged);
          } else {
            complete = false;
          }
          continue;
        }
      }
    }
    // Stage 3: interval value-range discharge. Decides the guard-shaped
    // components (negated equality chains, pinned re-queries) without
    // touching the bit-blaster; its answers are exact (witnesses are
    // re-checked by evaluation), so they feed the caches like a solve.
    if (options_.range) {
      ++stats_.range_checked;
      RangeResult rr = TryRangeDischarge(comp);
      if (rr.outcome != RangeResult::Outcome::kUnknown) {
        ++stats_.range_discharged;
        bool range_sat = rr.outcome == RangeResult::Outcome::kSat;
        Model range_model;
        if (range_sat) {
          range_model.values = std::move(rr.witness);
          std::map<uint64_t, ExprRef> vars;
          for (const ExprRef& c : comp) {
            CollectVars(c, &vars);
          }
          for (const auto& [id, var] : vars) {
            range_model.names[id] = var->name();
          }
        } else {
          ++stats_.range_unsat;
        }
        CacheInsert(key, range_sat);
        if (options_.shared_cache != nullptr) {
          options_.shared_cache->Insert(key, range_sat,
                                        range_sat ? &range_model : nullptr,
                                        this);
        }
        if (!range_sat) {
          return false;
        }
        MergeModel(range_model, &merged);
        continue;
      }
    }
    // Stage 4: solve the component (incremental session or one-shot).
    Model comp_model;
    bool sat = SolveComponent(comp, &comp_model);
    CacheInsert(key, sat);
    if (options_.shared_cache != nullptr) {
      options_.shared_cache->Insert(key, sat, sat ? &comp_model : nullptr, this);
    }
    if (!sat) {
      return false;
    }
    MergeModel(comp_model, &merged);
  }
  if (complete) {
    last_model_ = merged;
  }
  if (model) {
    *model = std::move(merged);
  }
  return true;
}

void ConstraintSolver::CacheInsert(size_t key, bool sat) {
  auto [it, inserted] = query_cache_.emplace(key, sat);
  if (!inserted) {
    it->second = sat;
    return;
  }
  query_order_.push_back(key);
  if (query_cache_.size() > kQueryCacheCap) {
    query_cache_.erase(query_order_.front());
    query_order_.pop_front();
    ++stats_.cache_evictions;
  }
}

bool ConstraintSolver::SolveComponent(const std::vector<ExprRef>& constraints,
                                      Model* model) {
  ++stats_.sat_calls;
  if (options_.incremental) {
    if (session_ != nullptr && session_->sat.NumClauses() > kSessionClauseCap) {
      // Learned clauses are an accelerator, not state answers depend on:
      // discarding the session is always sound, only slower.
      session_.reset();
      ++stats_.session_resets;
    }
    if (session_ == nullptr) {
      session_ = std::make_unique<SatSession>();
    }
    std::vector<Lit> assumptions;
    assumptions.reserve(constraints.size());
    for (const ExprRef& c : constraints) {
      assumptions.push_back(session_->blaster.Blast(c)[0]);
    }
    // Decision scope: this query's circuit-input variables only. The
    // session has accumulated variables from every past query; deciding
    // them all again would make each query cost O(session size). With the
    // cone's inputs assigned, unit propagation forces every in-cone gate,
    // and out-of-cone circuits are definitional (see SolveAssuming's
    // contract in sat.h).
    std::map<uint64_t, ExprRef> vars;
    for (const ExprRef& c : constraints) {
      CollectVars(c, &vars);
    }
    std::vector<uint32_t> scope;
    for (const auto& [id, var] : vars) {
      session_->blaster.AppendVarScope(var, &scope);
    }
    // A variable-free live constraint cannot occur (the factories fold
    // constant DAGs), but if `scope` ever ends up empty, SolveAssuming
    // treats it as "all variables" — slower, still correct.
    SatSolver::Stats before = session_->sat.stats();
    SatResult result = session_->sat.SolveAssuming(assumptions, scope);
    const SatSolver::Stats& after = session_->sat.stats();
    stats_.sat_conflicts += after.conflicts - before.conflicts;
    stats_.sat_decisions += after.decisions - before.decisions;
    stats_.sat_propagations += after.propagations - before.propagations;
    stats_.sat_learned += after.learned_clauses - before.learned_clauses;
    if (result != SatResult::kSat) {
      return false;
    }
    if (model) {
      // Only this component's variables: variables from past queries are
      // unconstrained (and deliberately undecided) in this solution.
      for (const auto& [id, var] : vars) {
        model->values[id] = session_->blaster.ModelValue(var);
        model->names[id] = var->name();
      }
    }
    return true;
  }
  // One-shot path (--no-solver-incremental): fresh solver per query,
  // constraints asserted as unit clauses.
  SatSolver sat;
  BitBlaster blaster(&sat);
  for (const ExprRef& c : constraints) {
    blaster.AssertTrue(c);
  }
  SatResult result = sat.Solve();
  stats_.sat_conflicts += sat.stats().conflicts;
  stats_.sat_decisions += sat.stats().decisions;
  stats_.sat_propagations += sat.stats().propagations;
  stats_.sat_learned += sat.stats().learned_clauses;
  if (result != SatResult::kSat) {
    return false;
  }
  if (model) {
    for (const auto& [id, var] : blaster.vars()) {
      model->values[id] = blaster.ModelValue(var);
      model->names[id] = var->name();
    }
  }
  return true;
}

std::vector<ExprRef> ConstraintSolver::IndependentSlice(
    const std::vector<ExprRef>& constraints, const ExprRef& cond) {
  // Each constraint's sorted variable ids, read from its summary, in one
  // flat buffer: constraint i owns ids[begin[i], begin[i + 1]).
  std::vector<uint64_t> ids;
  std::vector<size_t> begin;
  begin.reserve(constraints.size() + 1);
  for (const ExprRef& c : constraints) {
    begin.push_back(ids.size());
    AppendVarIds(c, &ids);
  }
  begin.push_back(ids.size());
  // Fixed-point closure starting from cond's variables; `reached` stays
  // sorted and distinct.
  std::vector<uint64_t> reached;
  AppendVarIds(cond, &reached);
  std::vector<bool> in_slice(constraints.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (in_slice[i]) {
        continue;
      }
      const auto first = ids.begin() + static_cast<std::ptrdiff_t>(begin[i]);
      const auto last = ids.begin() + static_cast<std::ptrdiff_t>(begin[i + 1]);
      bool overlaps = std::any_of(first, last, [&reached](uint64_t v) {
        return std::binary_search(reached.begin(), reached.end(), v);
      });
      if (!overlaps) {
        continue;
      }
      in_slice[i] = true;
      changed = true;
      for (auto it = first; it != last; ++it) {
        auto pos = std::lower_bound(reached.begin(), reached.end(), *it);
        if (pos == reached.end() || *pos != *it) {
          reached.insert(pos, *it);
        }
      }
    }
  }
  std::vector<ExprRef> slice;
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (in_slice[i]) {
      slice.push_back(constraints[i]);
    }
  }
  return slice;
}

std::vector<std::vector<ExprRef>> ConstraintSolver::PartitionIndependent(
    const std::vector<ExprRef>& constraints) {
  // Union-find over constraint indices, linked through shared variable ids.
  std::vector<size_t> parent(constraints.size());
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = i;
  }
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // Path halving.
      x = parent[x];
    }
    return x;
  };
  // (var id, first constraint over it), sorted by id. Each constraint's ids
  // are unioned in ascending order.
  std::vector<std::pair<uint64_t, size_t>> var_owner;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < constraints.size(); ++i) {
    ids.clear();
    AppendVarIds(constraints[i], &ids);
    for (uint64_t id : ids) {
      auto it = std::lower_bound(
          var_owner.begin(), var_owner.end(), id,
          [](const std::pair<uint64_t, size_t>& o, uint64_t v) { return o.first < v; });
      if (it == var_owner.end() || it->first != id) {
        var_owner.insert(it, {id, i});
      } else {
        parent[find(i)] = find(it->second);
      }
    }
  }
  // Emit components ordered by first constraint occurrence (deterministic).
  constexpr size_t kNone = ~size_t{0};
  std::vector<size_t> component_of_root(constraints.size(), kNone);
  std::vector<std::vector<ExprRef>> components;
  for (size_t i = 0; i < constraints.size(); ++i) {
    size_t& index = component_of_root[find(i)];
    if (index == kNone) {
      index = components.size();
      components.emplace_back();
    }
    components[index].push_back(constraints[i]);
  }
  return components;
}

bool ConstraintSolver::MayBeTrue(const std::vector<ExprRef>& constraints,
                                 const ExprRef& cond) {
  if (cond->IsTrue()) {
    // Reachability of the current path is the engine's invariant.
    return true;
  }
  if (cond->IsFalse()) {
    return false;
  }
  // Independence slicing: constraints over unrelated variables cannot
  // affect cond's feasibility (they are satisfiable by path-consistency).
  std::vector<ExprRef> with = IndependentSlice(constraints, cond);
  stats_.sliced_constraints += constraints.size() - with.size();
  with.push_back(cond);
  return IsSatisfiable(with);
}

bool ConstraintSolver::MayBeFalse(const std::vector<ExprRef>& constraints,
                                  const ExprRef& cond) {
  return MayBeTrue(constraints, MakeLogicalNot(cond));
}

bool ConstraintSolver::MustBeTrue(const std::vector<ExprRef>& constraints,
                                  const ExprRef& cond) {
  return !MayBeFalse(constraints, cond);
}

}  // namespace esd::solver
