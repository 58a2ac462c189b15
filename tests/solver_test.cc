// Unit tests for the expression DAG, simplifier, bit-blaster, and SAT core.
#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/solver/bitblast.h"
#include "src/solver/expr.h"
#include "src/solver/query_cache.h"
#include "src/solver/sat.h"
#include "src/solver/solver.h"

namespace esd::solver {
namespace {

// Reference walk for the variable summaries: every kVar under `e`, by a
// plain preorder DFS over distinct nodes, with the first node met per id
// (what CollectVars keeps). Reads no summary.
void ReferenceVars(const ExprRef& e, std::set<const Expr*>* seen,
                   std::map<uint64_t, ExprRef>* vars) {
  if (!seen->insert(e.get()).second) {
    return;
  }
  if (e->kind() == ExprKind::kVar) {
    vars->emplace(e->aux(), e);
  }
  for (const ExprRef& k : e->kids()) {
    ReferenceVars(k, seen, vars);
  }
}

std::vector<uint64_t> ReferenceVarIds(const ExprRef& e) {
  std::set<const Expr*> seen;
  std::map<uint64_t, ExprRef> vars;
  ReferenceVars(e, &seen, &vars);
  std::vector<uint64_t> ids;
  for (const auto& [id, unused] : vars) {
    ids.push_back(id);
  }
  return ids;
}

// A random expression over `vars` (and constants) with shared subtrees:
// one operand is one of the last few results, so the DAG grows, and the
// other is any earlier node.
ExprRef RandomDag(std::mt19937_64& rng, const std::vector<ExprRef>& vars,
                  int nodes) {
  const uint32_t w = vars[0]->width();
  std::vector<ExprRef> pool = vars;
  pool.push_back(MakeConst(w, rng()));
  for (int n = 0; n < nodes; ++n) {
    const ExprRef a = pool[pool.size() - 1 - rng() % std::min<size_t>(3, pool.size())];
    const ExprRef b = pool[rng() % pool.size()];
    switch (rng() % 6) {
      case 0: pool.push_back(MakeAdd(a, b)); break;
      case 1: pool.push_back(MakeMul(a, MakeConst(w, rng() | 1))); break;
      case 2: pool.push_back(MakeXor(a, b)); break;
      case 3: pool.push_back(MakeIte(MakeUlt(a, b), a, b)); break;
      case 4: pool.push_back(MakeZExt(MakeExtract(a, 0, w / 2), w)); break;
      default: pool.push_back(MakeSub(b, a)); break;
    }
  }
  return pool.back();
}

TEST(ExprTest, ConstFolding) {
  ExprRef a = MakeConst(32, 7);
  ExprRef b = MakeConst(32, 5);
  EXPECT_TRUE(MakeAdd(a, b)->IsConstValue(12));
  EXPECT_TRUE(MakeSub(a, b)->IsConstValue(2));
  EXPECT_TRUE(MakeMul(a, b)->IsConstValue(35));
  EXPECT_TRUE(MakeUDiv(a, b)->IsConstValue(1));
  EXPECT_TRUE(MakeURem(a, b)->IsConstValue(2));
  EXPECT_TRUE(MakeEq(a, a)->IsTrue());
  EXPECT_TRUE(MakeEq(a, b)->IsFalse());
  EXPECT_TRUE(MakeUlt(b, a)->IsTrue());
}

TEST(ExprTest, SignedFolding) {
  ExprRef minus_one = MakeConst(32, 0xffffffff);
  ExprRef two = MakeConst(32, 2);
  EXPECT_TRUE(MakeSlt(minus_one, two)->IsTrue());
  EXPECT_TRUE(MakeSDiv(minus_one, two)->IsConstValue(0));
  EXPECT_TRUE(MakeAShr(minus_one, MakeConst(32, 4))->IsConstValue(0xffffffff));
}

TEST(ExprTest, IdentitySimplifications) {
  ExprRef x = MakeVar(1, 32, "x");
  EXPECT_EQ(MakeAdd(x, MakeConst(32, 0)).get(), x.get());
  EXPECT_EQ(MakeMul(x, MakeConst(32, 1)).get(), x.get());
  EXPECT_TRUE(MakeMul(x, MakeConst(32, 0))->IsConstValue(0));
  EXPECT_TRUE(MakeXor(x, x)->IsConstValue(0));
  EXPECT_TRUE(MakeEq(x, x)->IsTrue());
  EXPECT_EQ(MakeNot(MakeNot(x)).get(), x.get());
  EXPECT_TRUE(MakeAnd(x, MakeConst(32, 0))->IsConstValue(0));
  EXPECT_EQ(MakeAnd(x, MakeConst(32, 0xffffffff)).get(), x.get());
}

TEST(ExprTest, ExtractConcatComposition) {
  ExprRef x = MakeVar(1, 8, "x");
  ExprRef y = MakeVar(2, 8, "y");
  ExprRef cat = MakeConcat(x, y);
  EXPECT_EQ(cat->width(), 16u);
  EXPECT_EQ(MakeExtract(cat, 0, 8).get(), y.get());
  EXPECT_EQ(MakeExtract(cat, 8, 8).get(), x.get());
  ExprRef z = MakeZExt(x, 32);
  EXPECT_TRUE(MakeExtract(z, 16, 8)->IsConstValue(0));
  EXPECT_EQ(MakeExtract(z, 0, 8).get(), x.get());
}

// A value stored byte by byte and loaded back, in the interpreter's
// little-endian LoadBytes order: concat(byte_i, acc) for i = 1..n-1.
ExprRef ReloadBytes(const ExprRef& stored, uint32_t first_byte, uint32_t bytes) {
  ExprRef value = MakeExtract(stored, first_byte * 8, 8);
  for (uint32_t i = 1; i < bytes; ++i) {
    value = MakeConcat(MakeExtract(stored, (first_byte + i) * 8, 8), value);
  }
  return value;
}

TEST(ExprTest, ByteWiseReloadCollapsesOnlyAdjacentSlicesOfOneValue) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  EXPECT_EQ(ReloadBytes(x, 0, 4).get(), x.get());
  ExprRef mid = ReloadBytes(x, 1, 2);
  ASSERT_EQ(mid->kind(), ExprKind::kExtract);
  EXPECT_EQ(mid->aux(), 8u);
  EXPECT_EQ(mid->width(), 16u);
  EXPECT_EQ(mid->kids()[0].get(), x.get());
  // Non-adjacent bytes, reversed order and bytes of two sources stay joined.
  auto byte = [](const ExprRef& v, uint32_t i) { return MakeExtract(v, i * 8, 8); };
  EXPECT_EQ(MakeConcat(byte(x, 2), byte(x, 0))->kind(), ExprKind::kConcat);
  EXPECT_EQ(MakeConcat(byte(x, 0), byte(x, 1))->kind(), ExprKind::kConcat);
  EXPECT_EQ(MakeConcat(byte(y, 1), byte(x, 0))->kind(), ExprKind::kConcat);
}

TEST(ExprTest, CollapsedReloadEvaluatesLikeTheBytes) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  // Bytes 1-3 of x below byte 0 of y: the x run collapses, the join stays.
  ExprRef mixed = MakeConcat(MakeExtract(y, 0, 8), ReloadBytes(x, 1, 3));
  ASSERT_EQ(mixed->kind(), ExprKind::kConcat);
  ASSERT_EQ(mixed->kids()[1]->kind(), ExprKind::kExtract);
  ExprRef middle = ReloadBytes(x, 1, 2);
  std::mt19937_64 rng(20211);
  for (int i = 0; i < 100; ++i) {
    uint64_t vx = rng() & 0xffffffff;
    uint64_t vy = rng() & 0xffffffff;
    std::map<uint64_t, uint64_t> env{{1, vx}, {2, vy}};
    EXPECT_EQ(EvalExpr(mixed, env), ((vy & 0xff) << 24) | (vx >> 8));
    EXPECT_EQ(EvalExpr(middle, env), (vx >> 8) & 0xffff);
  }
}

TEST(ExprTest, EvalMatchesFold) {
  std::map<uint64_t, uint64_t> env{{1, 0x1234}, {2, 0x77}};
  ExprRef x = MakeVar(1, 16, "x");
  ExprRef y = MakeVar(2, 16, "y");
  EXPECT_EQ(EvalExpr(MakeAdd(x, y), env), (0x1234u + 0x77u) & 0xffff);
  EXPECT_EQ(EvalExpr(MakeMul(x, y), env), (0x1234ull * 0x77ull) & 0xffff);
  EXPECT_EQ(EvalExpr(MakeUlt(y, x), env), 1u);
}

TEST(ExprTest, VariableSummaryMatchesAWalk) {
  // Every node of seeded random DAGs over up to 8 variables (ids spread
  // out, so order matters): the summary names exactly the variables a
  // plain walk finds, and overflows exactly when they do not fit inline.
  // AppendVarIds and CollectVars must agree with the walk too.
  std::mt19937_64 rng(20261018);
  size_t overflowed = 0;
  size_t fitting = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<ExprRef> vars;
    const int num_vars = 1 + static_cast<int>(rng() % 8);
    for (int v = 0; v < num_vars; ++v) {
      vars.push_back(MakeVar(1000 - 37 * v, 16, "v" + std::to_string(v)));
    }
    ExprRef root = RandomDag(rng, vars, 30);
    std::set<const Expr*> nodes;
    std::map<uint64_t, ExprRef> unused;
    ReferenceVars(root, &nodes, &unused);
    for (const Expr* raw : nodes) {
      ExprRef e(root, raw);  // Aliasing: borrows root's ownership.
      std::vector<uint64_t> expected = ReferenceVarIds(e);
      ASSERT_EQ(e->vars_overflow(), expected.size() > Expr::kInlineVars)
          << ExprToString(e);
      if (e->vars_overflow()) {
        ++overflowed;
        EXPECT_TRUE(e->var_ids().empty());
      } else {
        ++fitting;
        EXPECT_EQ(std::vector<uint64_t>(e->var_ids().begin(), e->var_ids().end()),
                  expected);
      }
      std::vector<uint64_t> appended = {7, 7};  // Appends after existing ids.
      AppendVarIds(e, &appended);
      expected.insert(expected.begin(), {7, 7});
      EXPECT_EQ(appended, expected) << ExprToString(e);
    }
    // CollectVars keeps the same node per id as a plain preorder walk.
    std::set<const Expr*> seen;
    std::map<uint64_t, ExprRef> reference;
    ReferenceVars(root, &seen, &reference);
    std::map<uint64_t, ExprRef> collected;
    CollectVars(root, &collected);
    ASSERT_EQ(collected.size(), reference.size());
    for (const auto& [id, var] : reference) {
      EXPECT_EQ(collected[id].get(), var.get()) << id;
    }
  }
  // Both sides of the inline limit were exercised.
  EXPECT_GT(overflowed, 100u);
  EXPECT_GT(fitting, 100u);
}

TEST(SatTest, TrivialSatAndUnsat) {
  SatSolver s;
  uint32_t a = s.NewVar();
  uint32_t b = s.NewVar();
  s.AddBinary(Lit::Pos(a), Lit::Pos(b));
  s.AddUnit(Lit::Neg(a));
  EXPECT_EQ(s.Solve(), SatResult::kSat);
  EXPECT_FALSE(s.ValueOf(a));
  EXPECT_TRUE(s.ValueOf(b));
}

TEST(SatTest, Unsat) {
  SatSolver s;
  uint32_t a = s.NewVar();
  uint32_t b = s.NewVar();
  s.AddBinary(Lit::Pos(a), Lit::Pos(b));
  s.AddBinary(Lit::Neg(a), Lit::Pos(b));
  s.AddBinary(Lit::Pos(a), Lit::Neg(b));
  s.AddBinary(Lit::Neg(a), Lit::Neg(b));
  EXPECT_EQ(s.Solve(), SatResult::kUnsat);
}

// Pigeonhole(4 pigeons, 3 holes): classically UNSAT, requires real search.
TEST(SatTest, Pigeonhole) {
  SatSolver s;
  constexpr int kPigeons = 4;
  constexpr int kHoles = 3;
  uint32_t v[kPigeons][kHoles];
  for (auto& row : v) {
    for (auto& x : row) {
      x = s.NewVar();
    }
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < kHoles; ++h) {
      clause.push_back(Lit::Pos(v[p][h]));
    }
    s.AddClause(clause);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        s.AddBinary(Lit::Neg(v[p1][h]), Lit::Neg(v[p2][h]));
      }
    }
  }
  EXPECT_EQ(s.Solve(), SatResult::kUnsat);
}

TEST(SolverTest, SimpleEquation) {
  // x + 3 == 10  =>  x == 7.
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef c = MakeEq(MakeAdd(x, MakeConst(32, 3)), MakeConst(32, 10));
  ConstraintSolver solver;
  Model model;
  ASSERT_TRUE(solver.IsSatisfiable({c}, &model));
  EXPECT_EQ(model.ValueOf(1), 7u);
}

TEST(SolverTest, UnsatisfiableConjunction) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef c1 = MakeUlt(x, MakeConst(32, 5));
  ExprRef c2 = MakeUlt(MakeConst(32, 9), x);
  ConstraintSolver solver;
  EXPECT_FALSE(solver.IsSatisfiable({c1, c2}));
}

TEST(SolverTest, MultiplicationInversion) {
  // x * 6 == 42 has solutions (x = 7 works; model must satisfy).
  ExprRef x = MakeVar(1, 16, "x");
  ExprRef c = MakeEq(MakeMul(x, MakeConst(16, 6)), MakeConst(16, 42));
  ConstraintSolver solver;
  Model model;
  ASSERT_TRUE(solver.IsSatisfiable({c}, &model));
  EXPECT_EQ((model.ValueOf(1) * 6) & 0xffff, 42u);
}

TEST(SolverTest, DivisionConstraint) {
  // x / 7 == 3 and x % 7 == 2  =>  x == 23.
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef seven = MakeConst(32, 7);
  ConstraintSolver solver;
  Model model;
  ASSERT_TRUE(solver.IsSatisfiable(
      {MakeEq(MakeUDiv(x, seven), MakeConst(32, 3)),
       MakeEq(MakeURem(x, seven), MakeConst(32, 2))},
      &model));
  EXPECT_EQ(model.ValueOf(1), 23u);
}

TEST(SolverTest, SignedComparisonModel) {
  // x < 0 (signed) and x > -10 (signed).
  ExprRef x = MakeVar(1, 32, "x");
  ConstraintSolver solver;
  Model model;
  ASSERT_TRUE(solver.IsSatisfiable(
      {MakeSlt(x, MakeConst(32, 0)),
       MakeSlt(MakeConst(32, static_cast<uint32_t>(-10)), x)},
      &model));
  int32_t v = static_cast<int32_t>(model.ValueOf(1));
  EXPECT_LT(v, 0);
  EXPECT_GT(v, -10);
}

TEST(SolverTest, MayMustQueries) {
  ExprRef x = MakeVar(1, 8, "x");
  std::vector<ExprRef> path = {MakeUlt(x, MakeConst(8, 10))};
  ConstraintSolver solver;
  EXPECT_TRUE(solver.MayBeTrue(path, MakeEq(x, MakeConst(8, 5))));
  EXPECT_FALSE(solver.MayBeTrue(path, MakeEq(x, MakeConst(8, 20))));
  EXPECT_TRUE(solver.MustBeTrue(path, MakeUlt(x, MakeConst(8, 11))));
  EXPECT_FALSE(solver.MustBeTrue(path, MakeUlt(x, MakeConst(8, 9))));
}

TEST(SolverTest, ByteConcatString) {
  // Model KLEE-style per-byte string constraints: bytes "GET ".
  ConstraintSolver solver;
  std::vector<ExprRef> constraints;
  const char* want = "GET ";
  for (int i = 0; i < 4; ++i) {
    ExprRef b = MakeVar(static_cast<uint64_t>(i), 8, "url" + std::to_string(i));
    constraints.push_back(MakeEq(b, MakeConst(8, static_cast<uint8_t>(want[i]))));
  }
  Model model;
  ASSERT_TRUE(solver.IsSatisfiable(constraints, &model));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(model.ValueOf(static_cast<uint64_t>(i)),
              static_cast<uint64_t>(want[i]));
  }
}

// Property sweep: random expressions evaluated against the bit-blaster.
// For each sampled (op, a, b), assert that constraining `op(x, y) == fold`
// with x==a, y==b is SAT, and that `op(x,y) != fold` with x==a, y==b is
// UNSAT. This cross-checks EvalExpr, the simplifier, and every circuit.
class BlastPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BlastPropertyTest, CircuitMatchesEval) {
  std::mt19937_64 rng(GetParam());
  const ExprKind kOps[] = {ExprKind::kAdd,  ExprKind::kSub,  ExprKind::kMul,
                           ExprKind::kUDiv, ExprKind::kSDiv, ExprKind::kURem,
                           ExprKind::kSRem, ExprKind::kAnd,  ExprKind::kOr,
                           ExprKind::kXor,  ExprKind::kShl,  ExprKind::kLShr,
                           ExprKind::kAShr, ExprKind::kUlt,  ExprKind::kSlt,
                           ExprKind::kUle,  ExprKind::kSle,  ExprKind::kEq};
  const uint32_t kWidths[] = {8, 16, 32};
  for (int iter = 0; iter < 6; ++iter) {
    ExprKind op = kOps[rng() % std::size(kOps)];
    uint32_t w = kWidths[rng() % std::size(kWidths)];
    uint64_t av = rng() & WidthMask(w);
    uint64_t bv = rng() & WidthMask(w);
    if (op == ExprKind::kShl || op == ExprKind::kLShr || op == ExprKind::kAShr) {
      bv %= (w + 4);  // Exercise out-of-range shifts occasionally.
    }
    ExprRef x = MakeVar(100, w, "x");
    ExprRef y = MakeVar(101, w, "y");
    ExprRef sym;
    switch (op) {
      case ExprKind::kAdd: sym = MakeAdd(x, y); break;
      case ExprKind::kSub: sym = MakeSub(x, y); break;
      case ExprKind::kMul: sym = MakeMul(x, y); break;
      case ExprKind::kUDiv: sym = MakeUDiv(x, y); break;
      case ExprKind::kSDiv: sym = MakeSDiv(x, y); break;
      case ExprKind::kURem: sym = MakeURem(x, y); break;
      case ExprKind::kSRem: sym = MakeSRem(x, y); break;
      case ExprKind::kAnd: sym = MakeAnd(x, y); break;
      case ExprKind::kOr: sym = MakeOr(x, y); break;
      case ExprKind::kXor: sym = MakeXor(x, y); break;
      case ExprKind::kShl: sym = MakeShl(x, y); break;
      case ExprKind::kLShr: sym = MakeLShr(x, y); break;
      case ExprKind::kAShr: sym = MakeAShr(x, y); break;
      case ExprKind::kUlt: sym = MakeUlt(x, y); break;
      case ExprKind::kSlt: sym = MakeSlt(x, y); break;
      case ExprKind::kUle: sym = MakeUle(x, y); break;
      case ExprKind::kSle: sym = MakeSle(x, y); break;
      default: sym = MakeEq(x, y); break;
    }
    std::map<uint64_t, uint64_t> env{{100, av}, {101, bv}};
    uint64_t expect = EvalExpr(sym, env);

    ConstraintSolver solver;
    std::vector<ExprRef> cs = {MakeEq(x, MakeConst(w, av)),
                               MakeEq(y, MakeConst(w, bv)),
                               MakeEq(sym, MakeConst(sym->width(), expect))};
    EXPECT_TRUE(solver.IsSatisfiable(cs))
        << "op=" << static_cast<int>(op) << " w=" << w << " a=" << av << " b=" << bv;

    ConstraintSolver solver2;
    std::vector<ExprRef> cs2 = {MakeEq(x, MakeConst(w, av)),
                                MakeEq(y, MakeConst(w, bv)),
                                MakeNe(sym, MakeConst(sym->width(), expect))};
    EXPECT_FALSE(solver2.IsSatisfiable(cs2))
        << "op=" << static_cast<int>(op) << " w=" << w << " a=" << av << " b=" << bv;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BlastPropertyTest, ::testing::Range(1, 25));

TEST(SolverTest, CacheCountsHits) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef c = MakeUlt(x, MakeConst(32, 100));
  ConstraintSolver solver;
  EXPECT_TRUE(solver.IsSatisfiable({c}));
  EXPECT_TRUE(solver.IsSatisfiable({c}));
  EXPECT_GE(solver.stats().cex_hits + solver.stats().cache_hits, 1u);
}

TEST(SolverTest, QueryCacheIsBounded) {
  // The query cache must not grow without bound across a long search: after
  // kQueryCacheCap distinct queries, the oldest entries are evicted FIFO.
  ConstraintSolver solver;
  const size_t extra = 100;
  for (size_t i = 0; i < ConstraintSolver::kQueryCacheCap + extra; ++i) {
    // Distinct single-variable queries; each misses every cache layer.
    EXPECT_TRUE(solver.IsSatisfiable({MakeVar(i + 1, 1, "b")}));
  }
  EXPECT_EQ(solver.query_cache_size(), ConstraintSolver::kQueryCacheCap);
  EXPECT_EQ(solver.stats().cache_evictions, extra);
}

TEST(SolverTest, QueryCacheStillHitsAfterEvictions) {
  ConstraintSolver solver;
  // An unsat query is answered from the cache on re-ask (sat answers must
  // re-solve when a model is requested, so unsat is the cacheable case).
  ExprRef x = MakeVar(1, 32, "x");
  std::vector<ExprRef> unsat = {MakeEq(x, MakeConst(32, 1)),
                                MakeEq(x, MakeConst(32, 2))};
  EXPECT_FALSE(solver.IsSatisfiable(unsat));
  uint64_t sat_calls = solver.stats().sat_calls;
  EXPECT_FALSE(solver.IsSatisfiable(unsat));
  EXPECT_EQ(solver.stats().sat_calls, sat_calls);  // Cache, not the SAT solver.
  EXPECT_GE(solver.stats().cache_hits, 1u);
}

TEST(SlicingTest, DisjointVariableSetsYieldEmptySlice) {
  // cond shares no variables with any constraint: the slice is empty (all
  // constraints are satisfiable by path-consistency and can be dropped).
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  ExprRef z = MakeVar(3, 32, "z");
  std::vector<ExprRef> constraints = {MakeUlt(x, MakeConst(32, 10)),
                                      MakeEq(y, MakeConst(32, 4))};
  auto slice = ConstraintSolver::IndependentSlice(constraints,
                                                  MakeUlt(z, MakeConst(32, 2)));
  EXPECT_TRUE(slice.empty());
}

TEST(SlicingTest, DirectOverlapIsKept) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  std::vector<ExprRef> constraints = {MakeUlt(x, MakeConst(32, 10)),
                                      MakeEq(y, MakeConst(32, 4))};
  auto slice = ConstraintSolver::IndependentSlice(constraints,
                                                  MakeUlt(x, MakeConst(32, 5)));
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_TRUE(Expr::Equal(slice[0], constraints[0]));
}

TEST(SlicingTest, TransitiveOverlapIsClosed) {
  // cond mentions only z, but z is tied to y and y to x: the closure must
  // pull in the whole chain while leaving the unrelated w constraint out.
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  ExprRef z = MakeVar(3, 32, "z");
  ExprRef w = MakeVar(4, 32, "w");
  std::vector<ExprRef> constraints = {
      MakeEq(MakeAdd(x, y), MakeConst(32, 7)),   // x <-> y
      MakeEq(MakeAdd(y, z), MakeConst(32, 9)),   // y <-> z
      MakeUlt(w, MakeConst(32, 3)),              // independent
  };
  auto slice = ConstraintSolver::IndependentSlice(constraints,
                                                  MakeUlt(z, MakeConst(32, 100)));
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_TRUE(Expr::Equal(slice[0], constraints[0]));
  EXPECT_TRUE(Expr::Equal(slice[1], constraints[1]));
}

TEST(SlicingTest, SlicedAnswerMatchesUnsliced) {
  // Feasibility answers must be unchanged by slicing (MayBeTrue slices
  // internally; compare against a direct full-set query).
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  std::vector<ExprRef> constraints = {MakeUlt(x, MakeConst(32, 10)),
                                      MakeEq(y, MakeConst(32, 4))};
  ExprRef cond = MakeEq(x, MakeConst(32, 3));
  ConstraintSolver with_slicing;
  bool sliced = with_slicing.MayBeTrue(constraints, cond);
  ConstraintSolver direct;
  std::vector<ExprRef> all = constraints;
  all.push_back(cond);
  EXPECT_EQ(sliced, direct.IsSatisfiable(all));
  EXPECT_GE(with_slicing.stats().sliced_constraints, 1u);
}

TEST(SolverTest, IteBlasting) {
  ExprRef c = MakeVar(1, 1, "c");
  ExprRef x = MakeIte(c, MakeConst(32, 11), MakeConst(32, 22));
  ConstraintSolver solver;
  Model model;
  ASSERT_TRUE(solver.IsSatisfiable({MakeEq(x, MakeConst(32, 22))}, &model));
  EXPECT_EQ(model.ValueOf(1), 0u);
}

// ---- Assumption-based incremental SAT --------------------------------------

TEST(SatAssumptionTest, AnswersVaryWithAssumptionsOnOneInstance) {
  SatSolver s;
  uint32_t a = s.NewVar();
  uint32_t b = s.NewVar();
  s.AddBinary(Lit::Pos(a), Lit::Pos(b));  // a | b
  EXPECT_EQ(s.SolveAssuming({Lit::Neg(a)}), SatResult::kSat);
  EXPECT_TRUE(s.ValueOf(b));
  // Unsat under these assumptions only — the instance stays usable...
  EXPECT_EQ(s.SolveAssuming({Lit::Neg(a), Lit::Neg(b)}), SatResult::kUnsat);
  // ...and later calls with other assumptions still succeed.
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(a)}), SatResult::kSat);
  EXPECT_EQ(s.Solve(), SatResult::kSat);
}

TEST(SatAssumptionTest, ContradictoryAndDuplicateAssumptions) {
  SatSolver s;
  uint32_t a = s.NewVar();
  s.AddUnit(Lit::Pos(s.NewVar()));  // Unrelated level-0 fact.
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(a), Lit::Pos(a)}), SatResult::kSat);
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(a), Lit::Neg(a)}), SatResult::kUnsat);
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(a)}), SatResult::kSat);
}

TEST(SatAssumptionTest, ClausesMayBeAddedBetweenSolves) {
  SatSolver s;
  uint32_t a = s.NewVar();
  uint32_t b = s.NewVar();
  s.AddBinary(Lit::Pos(a), Lit::Pos(b));
  EXPECT_EQ(s.SolveAssuming({Lit::Neg(a)}), SatResult::kSat);
  s.AddUnit(Lit::Neg(b));  // New top-level fact after a solve.
  EXPECT_EQ(s.SolveAssuming({Lit::Neg(a)}), SatResult::kUnsat);
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(a)}), SatResult::kSat);
  EXPECT_FALSE(s.ValueOf(b));
}

TEST(SatAssumptionTest, DecisionScopeSkipsForeignVariables) {
  // A thousand free variables from "past queries" must not be decided when
  // the scope restricts the solve to the two that matter.
  SatSolver s;
  for (int i = 0; i < 1000; ++i) {
    s.NewVar();
  }
  uint32_t a = s.NewVar();
  uint32_t b = s.NewVar();
  s.AddBinary(Lit::Neg(a), Lit::Pos(b));  // a -> b
  uint64_t before = s.stats().decisions;
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(a)}, {a, b}), SatResult::kSat);
  EXPECT_TRUE(s.ValueOf(b));
  // At most the scope could have been decided (a is an assumption, b is
  // propagated, so in fact zero free decisions happen).
  EXPECT_LE(s.stats().decisions - before, 2u);
}

TEST(SatAssumptionTest, LearnedClausesPersistAcrossCalls) {
  // Pigeonhole(4,3) decided under assumptions: refuting it once teaches the
  // solver enough that a second refutation is strictly cheaper.
  SatSolver s;
  constexpr int kPigeons = 4;
  constexpr int kHoles = 3;
  uint32_t v[kPigeons][kHoles];
  for (auto& row : v) {
    for (auto& x : row) {
      x = s.NewVar();
    }
  }
  uint32_t gate = s.NewVar();  // Assumption literal gating the hard core.
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<Lit> clause{Lit::Neg(gate)};
    for (int h = 0; h < kHoles; ++h) {
      clause.push_back(Lit::Pos(v[p][h]));
    }
    s.AddClause(clause);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        s.AddTernary(Lit::Neg(gate), Lit::Neg(v[p1][h]), Lit::Neg(v[p2][h]));
      }
    }
  }
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(gate)}), SatResult::kUnsat);
  uint64_t first = s.stats().conflicts;
  EXPECT_GT(first, 0u);
  EXPECT_EQ(s.SolveAssuming({Lit::Pos(gate)}), SatResult::kUnsat);
  uint64_t second = s.stats().conflicts - first;
  EXPECT_LT(second, first);
  // Without the gate the instance is satisfiable (everything off).
  EXPECT_EQ(s.Solve(), SatResult::kSat);
}

// ---- Independence partitioning (pipeline stage 1) --------------------------

// The std::set / std::map slicing and partitioning the summaries replaced,
// kept as the oracle: variable sets from the reference walk.
std::vector<ExprRef> OracleSlice(const std::vector<ExprRef>& constraints,
                                 const ExprRef& cond) {
  std::vector<uint64_t> seed = ReferenceVarIds(cond);
  std::set<uint64_t> reached(seed.begin(), seed.end());
  std::vector<std::set<uint64_t>> vars_of(constraints.size());
  for (size_t i = 0; i < constraints.size(); ++i) {
    std::vector<uint64_t> ids = ReferenceVarIds(constraints[i]);
    vars_of[i].insert(ids.begin(), ids.end());
  }
  std::vector<bool> in_slice(constraints.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (in_slice[i]) {
        continue;
      }
      bool overlaps = false;
      for (uint64_t v : vars_of[i]) {
        overlaps = overlaps || reached.count(v) > 0;
      }
      if (overlaps) {
        in_slice[i] = true;
        changed = true;
        reached.insert(vars_of[i].begin(), vars_of[i].end());
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

std::vector<std::vector<ExprRef>> OraclePartition(
    const std::vector<ExprRef>& constraints) {
  std::vector<size_t> parent(constraints.size());
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = i;
  }
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      x = parent[x];
    }
    return x;
  };
  std::map<uint64_t, size_t> var_owner;
  for (size_t i = 0; i < constraints.size(); ++i) {
    for (uint64_t id : ReferenceVarIds(constraints[i])) {
      auto [it, inserted] = var_owner.try_emplace(id, i);
      if (!inserted) {
        parent[find(i)] = find(it->second);
      }
    }
  }
  std::map<size_t, size_t> root_to_index;
  std::vector<std::vector<ExprRef>> components;
  for (size_t i = 0; i < constraints.size(); ++i) {
    auto [it, inserted] = root_to_index.try_emplace(find(i), components.size());
    if (inserted) {
      components.emplace_back();
    }
    components[it->second].push_back(constraints[i]);
  }
  return components;
}

TEST(SlicingTest, SummarySlicingMatchesTheSetAndMapOracle) {
  // 1,000 seeded constraint vectors over 12 variables; some constraints
  // span more variables than a node holds inline, so both the summary
  // path and the overflow walk run. Same constraints, same order, same
  // component order as the oracle.
  std::mt19937_64 rng(77);
  std::vector<ExprRef> vars;
  for (uint64_t v = 0; v < 12; ++v) {
    vars.push_back(MakeVar(500 - 40 * v, 16, "in" + std::to_string(v)));
  }
  auto random_constraint = [&] {
    std::vector<ExprRef> picked;
    const size_t span = 1 + rng() % 7;
    for (size_t k = 0; k < span; ++k) {
      picked.push_back(vars[rng() % vars.size()]);
    }
    ExprRef sum = RandomDag(rng, picked, 3);
    for (const ExprRef& v : picked) {
      sum = MakeAdd(sum, MakeMul(v, MakeConst(16, rng() | 1)));
    }
    return MakeUlt(sum, MakeConst(16, rng()));
  };
  size_t overflowing = 0;
  for (int round = 0; round < 1000; ++round) {
    std::vector<ExprRef> constraints;
    const size_t n = rng() % 9;
    for (size_t i = 0; i < n; ++i) {
      constraints.push_back(random_constraint());
      overflowing += constraints.back()->vars_overflow() ? 1 : 0;
    }
    ExprRef cond = random_constraint();
    std::vector<ExprRef> slice = ConstraintSolver::IndependentSlice(constraints, cond);
    std::vector<ExprRef> oracle_slice = OracleSlice(constraints, cond);
    ASSERT_EQ(slice.size(), oracle_slice.size()) << "round " << round;
    for (size_t i = 0; i < slice.size(); ++i) {
      EXPECT_EQ(slice[i].get(), oracle_slice[i].get()) << "round " << round;
    }
    auto components = ConstraintSolver::PartitionIndependent(constraints);
    auto oracle_components = OraclePartition(constraints);
    ASSERT_EQ(components.size(), oracle_components.size()) << "round " << round;
    for (size_t c = 0; c < components.size(); ++c) {
      ASSERT_EQ(components[c].size(), oracle_components[c].size())
          << "round " << round;
      for (size_t i = 0; i < components[c].size(); ++i) {
        EXPECT_EQ(components[c][i].get(), oracle_components[c][i].get())
            << "round " << round << " component " << c;
      }
    }
  }
  EXPECT_GT(overflowing, 100u);
}

TEST(PartitionTest, SplitsUnrelatedConstraintsAndKeepsChains) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  ExprRef z = MakeVar(3, 32, "z");
  ExprRef w = MakeVar(4, 32, "w");
  std::vector<ExprRef> constraints = {
      MakeUlt(x, MakeConst(32, 10)),            // component A
      MakeEq(y, MakeConst(32, 4)),              // component B
      MakeEq(MakeAdd(x, z), MakeConst(32, 7)),  // joins z into A
      MakeUlt(w, MakeConst(32, 3)),             // component C
  };
  auto components = ConstraintSolver::PartitionIndependent(constraints);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0].size(), 2u);  // x-chain, in first-seen order.
  EXPECT_TRUE(Expr::Equal(components[0][0], constraints[0]));
  EXPECT_TRUE(Expr::Equal(components[0][1], constraints[2]));
  EXPECT_EQ(components[1].size(), 1u);
  EXPECT_EQ(components[2].size(), 1u);
}

TEST(PartitionTest, ComponentAnswersComposeIntoOneModel) {
  // Two unrelated equation systems: solved per component, merged model.
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  ConstraintSolver solver;
  Model model;
  ASSERT_TRUE(solver.IsSatisfiable(
      {MakeEq(MakeAdd(x, MakeConst(32, 3)), MakeConst(32, 10)),
       MakeEq(MakeMul(y, MakeConst(32, 3)), MakeConst(32, 12))},
      &model));
  EXPECT_EQ(model.ValueOf(1), 7u);
  // 3 is invertible mod 2^32, so y == 4 is the unique solution.
  EXPECT_EQ(model.ValueOf(2), 4u);
  EXPECT_GE(solver.stats().components, 2u);
}

TEST(PartitionTest, UnsatComponentDecidesConjunction) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  ConstraintSolver solver;
  EXPECT_FALSE(solver.IsSatisfiable({MakeEq(y, MakeConst(32, 5)),
                                     MakeUlt(x, MakeConst(32, 4)),
                                     MakeUlt(MakeConst(32, 9), x)}));
}

// An input guard x*35 + 55 == 12200 has one solution, x = 347; a bound
// x <= 67, written as !(67 < x), excludes it. The range stage pins x
// through the bijective chain and refutes the pair without a SAT call.
TEST(SolverTest, RangeStagePinsBijectiveGuardAgainstNegatedBound) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef guard = MakeEq(MakeAdd(MakeMul(x, MakeConst(32, 35)), MakeConst(32, 55)),
                         MakeConst(32, 12200));
  ExprRef bound = MakeLogicalNot(MakeUlt(MakeConst(32, 67), x));
  ConstraintSolver solver;
  EXPECT_FALSE(solver.IsSatisfiable({guard, bound}));
  EXPECT_EQ(solver.stats().range_unsat, 1u);
  EXPECT_EQ(solver.stats().sat_calls, 0u);
}

// ---- Query-cache satellites ------------------------------------------------

TEST(SolverTest, UnsatAnswerCachedEvenWhenModelRequested) {
  // A cached unsat answer short-circuits later *model* requests too: there
  // is nothing to model, so skipping the cache was pure waste.
  ConstraintSolver solver;
  ExprRef x = MakeVar(1, 32, "x");
  std::vector<ExprRef> unsat = {MakeUlt(x, MakeConst(32, 4)),
                                MakeUlt(MakeConst(32, 9), x)};
  Model model;
  EXPECT_FALSE(solver.IsSatisfiable(unsat, &model));
  uint64_t sat_calls = solver.stats().sat_calls;
  Model model2;
  EXPECT_FALSE(solver.IsSatisfiable(unsat, &model2));
  EXPECT_EQ(solver.stats().sat_calls, sat_calls);
  EXPECT_GE(solver.stats().cache_hits, 1u);
}

TEST(SolverTest, DuplicatedConstraintsDoNotCollideInTheQueryCache) {
  // Regression: an XOR-combined query hash cancels repeated constraints, so
  // every multiset with pairwise-duplicated members hashed to the seed —
  // and a cached unsat for {C, C, C', C'} was then served for the
  // satisfiable {D, D}.
  ConstraintSolver solver;
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  std::vector<ExprRef> unsat_dup = {MakeUlt(x, MakeConst(32, 4)),
                                    MakeUlt(x, MakeConst(32, 4)),
                                    MakeUlt(MakeConst(32, 9), x),
                                    MakeUlt(MakeConst(32, 9), x)};
  EXPECT_FALSE(solver.IsSatisfiable(unsat_dup));
  std::vector<ExprRef> sat_dup = {MakeEq(y, MakeConst(32, 5)),
                                  MakeEq(y, MakeConst(32, 5))};
  EXPECT_TRUE(solver.IsSatisfiable(sat_dup));
}

TEST(SolverTest, PipelineOnAndOffAgreeOnRandomQueries) {
  std::mt19937_64 rng(20260730);
  SolverOptions off;
  off.slice = false;
  off.incremental = false;
  ConstraintSolver with(SolverOptions{});
  ConstraintSolver without(off);
  const uint32_t w = 8;
  for (int round = 0; round < 60; ++round) {
    ExprRef x = MakeVar(1, w, "x");
    ExprRef y = MakeVar(2, w, "y");
    std::vector<ExprRef> cs;
    for (int i = 0; i < 3; ++i) {
      ExprRef lhs = rng() & 1 ? MakeAdd(x, MakeConst(w, rng())) : MakeMul(y, x);
      ExprRef c = MakeConst(w, rng());
      cs.push_back(rng() & 1 ? MakeEq(lhs, c) : MakeUlt(lhs, c));
    }
    Model model;
    bool sat_on = with.IsSatisfiable(cs, &model);
    bool sat_off = without.IsSatisfiable(cs);
    ASSERT_EQ(sat_on, sat_off) << "round " << round;
    if (sat_on) {
      // The pipeline's model must actually satisfy the original set.
      for (const ExprRef& c : cs) {
        EXPECT_NE(EvalExpr(c, model.values), 0u) << ExprToString(c);
      }
    }
  }
}

TEST(SolverTest, IncrementalSessionKeepsQueriesIndependent) {
  // Queries must not leak constraints into each other through the shared
  // session: x == 5 first, then x == 9 (same variable) must both be sat.
  ConstraintSolver solver;
  ExprRef x = MakeVar(1, 32, "x");
  Model m1;
  ASSERT_TRUE(solver.IsSatisfiable({MakeEq(x, MakeConst(32, 5))}, &m1));
  EXPECT_EQ(m1.ValueOf(1), 5u);
  Model m2;
  ASSERT_TRUE(solver.IsSatisfiable({MakeEq(x, MakeConst(32, 9))}, &m2));
  EXPECT_EQ(m2.ValueOf(1), 9u);
  // And unsat under one query is not unsat forever.
  EXPECT_FALSE(solver.IsSatisfiable(
      {MakeEq(x, MakeConst(32, 1)), MakeEq(x, MakeConst(32, 2))}));
  Model m3;
  ASSERT_TRUE(solver.IsSatisfiable({MakeEq(x, MakeConst(32, 1))}, &m3));
  EXPECT_EQ(m3.ValueOf(1), 1u);
}

TEST(SolverTest, SessionHandlesVarIdReusedAtDifferentWidths) {
  // Distinct execution states may mint different variables under one id
  // (per-state counters); the session must not alias their bit vectors.
  ConstraintSolver solver;
  ExprRef wide = MakeVar(1, 32, "wide");
  Model m1;
  ASSERT_TRUE(solver.IsSatisfiable({MakeEq(wide, MakeConst(32, 100000))}, &m1));
  EXPECT_EQ(m1.ValueOf(1), 100000u);
  ExprRef narrow = MakeVar(1, 8, "narrow");
  Model m2;
  ASSERT_TRUE(solver.IsSatisfiable({MakeEq(narrow, MakeConst(8, 77))}, &m2));
  EXPECT_EQ(m2.ValueOf(1), 77u);
}

// ---- Shared portfolio cache (pipeline stage 2) -----------------------------

TEST(SharedCacheTest, CrossWorkerUnsatHitSkipsTheSatCall) {
  SharedSolverCache cache;
  SolverOptions opts;
  opts.shared_cache = &cache;
  ConstraintSolver worker_a(opts);
  ConstraintSolver worker_b(opts);
  ExprRef x = MakeVar(1, 32, "x");
  std::vector<ExprRef> unsat = {MakeUlt(x, MakeConst(32, 4)),
                                MakeUlt(MakeConst(32, 9), x)};
  EXPECT_FALSE(worker_a.IsSatisfiable(unsat));
  EXPECT_FALSE(worker_b.IsSatisfiable(unsat));
  EXPECT_EQ(worker_b.stats().sat_calls, 0u);
  EXPECT_EQ(worker_b.stats().shared_hits, 1u);
  // A's own re-ask is a local hit, not a cross-worker one.
  EXPECT_FALSE(worker_a.IsSatisfiable(unsat));
  EXPECT_EQ(worker_a.stats().shared_hits, 0u);
}

TEST(SharedCacheTest, CrossWorkerModelIsValidatedAndReused) {
  SharedSolverCache cache;
  SolverOptions opts;
  opts.shared_cache = &cache;
  ConstraintSolver worker_a(opts);
  ConstraintSolver worker_b(opts);
  ExprRef x = MakeVar(1, 32, "x");
  std::vector<ExprRef> q = {MakeEq(MakeAdd(x, MakeConst(32, 3)), MakeConst(32, 10))};
  Model ma;
  ASSERT_TRUE(worker_a.IsSatisfiable(q, &ma));
  Model mb;
  ASSERT_TRUE(worker_b.IsSatisfiable(q, &mb));
  EXPECT_EQ(mb.ValueOf(1), 7u);
  EXPECT_EQ(worker_b.stats().sat_calls, 0u);  // Served by A's model.
  EXPECT_EQ(worker_b.stats().shared_hits, 1u);
}

TEST(SharedCacheTest, BoundedPerShard) {
  SharedSolverCache cache;
  const size_t overfill = SharedSolverCache::kShards * SharedSolverCache::kShardCap + 500;
  for (size_t i = 0; i < overfill; ++i) {
    cache.Insert(i, true, nullptr, &cache);
  }
  EXPECT_LE(cache.size(), SharedSolverCache::kShards * SharedSolverCache::kShardCap);
  EXPECT_GT(cache.size(), 0u);
}

// A model with `vars` values (and names, which is what actually costs bytes).
Model BigModel(size_t vars, size_t name_bytes) {
  Model m;
  for (size_t i = 0; i < vars; ++i) {
    m.values[i] = i * 3;
    m.names[i] = std::string(name_bytes, 'n');
  }
  return m;
}

// Entry-count eviction alone let a long-lived cache holding large models
// grow without bound. Byte accounting must keep the summed footprint under
// the configured ceiling even when the entry count is far below the entry
// cap.
TEST(SharedCacheTest, ByteBudgetEvictsOversizedModelsUnderEntryCap) {
  const size_t max_bytes = 64 * 1024;
  SharedSolverCache cache(max_bytes);
  Model big = BigModel(/*vars=*/10, /*name_bytes=*/50);
  const size_t footprint = SharedSolverCache::EntryFootprint(big, true);
  // Each entry is heavy enough that a few fill a shard's byte budget, yet
  // fits under it (so the model is kept, not stripped).
  ASSERT_GT(footprint, 1000u);
  ASSERT_LE(footprint, max_bytes / SharedSolverCache::kShards);
  const size_t n = 4 * (max_bytes / footprint) + SharedSolverCache::kShards;
  for (size_t i = 0; i < n; ++i) {
    cache.Insert(i, true, &big, &cache);
  }
  EXPECT_LE(cache.bytes(), max_bytes);
  EXPECT_LT(cache.size(), n);  // Well under the entry cap, yet evicted.
  EXPECT_GT(cache.stats().evictions, 0u);
  // The eviction count is exact: insertions = survivors + evictions.
  EXPECT_EQ(cache.stats().evictions + cache.size(), n);
}

// A single model whose footprint exceeds a whole shard budget is stored
// verdict-only (the sat answer is still worth caching; the model is not).
TEST(SharedCacheTest, ModelLargerThanShardBudgetStoredVerdictOnly) {
  const size_t max_bytes = SharedSolverCache::kShards * 512;
  SharedSolverCache cache(max_bytes);
  Model huge = BigModel(/*vars=*/100, /*name_bytes=*/200);
  ASSERT_GT(SharedSolverCache::EntryFootprint(huge, true),
            max_bytes / SharedSolverCache::kShards);
  cache.Insert(1, true, &huge, &cache);
  auto hit = cache.Lookup(1, nullptr);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->sat);
  EXPECT_FALSE(hit->has_model);
  EXPECT_LE(cache.bytes(), max_bytes);
}

// Byte accounting follows the model-upgrade path (model-less sat entry
// re-inserted with a model) instead of drifting.
TEST(SharedCacheTest, UpgradeAdjustsByteAccounting) {
  SharedSolverCache cache;
  cache.Insert(7, true, nullptr, &cache);
  const size_t before = cache.bytes();
  Model m = BigModel(/*vars=*/8, /*name_bytes=*/16);
  cache.Insert(7, true, &m, &cache);
  EXPECT_EQ(cache.bytes(),
            before - SharedSolverCache::EntryFootprint({}, false) +
                SharedSolverCache::EntryFootprint(m, true));
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace esd::solver
