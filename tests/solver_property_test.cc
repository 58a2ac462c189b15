// Property suites for the expression simplifier and the SAT core: random
// expressions evaluated three ways (direct fold, EvalExpr on the DAG, and
// through the bit-blaster + SAT model) must agree; simplifier
// transformations must preserve semantics on random assignments and
// satisfiability under the solver.
#include <random>

#include <gtest/gtest.h>

#include "src/solver/expr.h"
#include "src/solver/sat.h"
#include "src/solver/solver.h"

namespace esd::solver {
namespace {

// Builds a random expression DAG over two variables.
ExprRef RandomExpr(std::mt19937_64& rng, const ExprRef& x, const ExprRef& y,
                   int depth) {
  uint32_t w = x->width();
  if (depth == 0) {
    switch (rng() % 3) {
      case 0:
        return x;
      case 1:
        return y;
      default:
        return MakeConst(w, rng());
    }
  }
  ExprRef a = RandomExpr(rng, x, y, depth - 1);
  ExprRef b = RandomExpr(rng, x, y, depth - 1);
  switch (rng() % 10) {
    case 0:
      return MakeAdd(a, b);
    case 1:
      return MakeSub(a, b);
    case 2:
      return MakeMul(a, b);
    case 3:
      return MakeAnd(a, b);
    case 4:
      return MakeOr(a, b);
    case 5:
      return MakeXor(a, b);
    case 6:
      return MakeNot(a);
    case 7:
      return MakeIte(MakeUlt(a, b), a, b);
    case 8:
      return MakeZExt(MakeExtract(a, 0, w / 2), w);
    default:
      return MakeShl(a, MakeConst(w, rng() % (w + 2)));
  }
}

class SimplifierPropertyTest : public ::testing::TestWithParam<int> {};

// Simplified DAGs must evaluate identically to their unsimplified meaning:
// EvalExpr *is* the semantics, and the factories simplify eagerly, so
// cross-check EvalExpr against the solver's model-checked value.
TEST_P(SimplifierPropertyTest, EvalAgreesWithSatModel) {
  std::mt19937_64 rng(GetParam() * 7919);
  const uint32_t w = 16;
  ExprRef x = MakeVar(1, w, "x");
  ExprRef y = MakeVar(2, w, "y");
  for (int round = 0; round < 4; ++round) {
    ExprRef e = RandomExpr(rng, x, y, 3);
    uint64_t xv = rng() & WidthMask(w);
    uint64_t yv = rng() & WidthMask(w);
    std::map<uint64_t, uint64_t> env{{1, xv}, {2, yv}};
    uint64_t expect = EvalExpr(e, env);

    ConstraintSolver solver;
    std::vector<ExprRef> cs = {MakeEq(x, MakeConst(w, xv)),
                               MakeEq(y, MakeConst(w, yv)),
                               MakeEq(e, MakeConst(e->width(), expect))};
    EXPECT_TRUE(solver.IsSatisfiable(cs)) << ExprToString(e);

    ConstraintSolver solver2;
    std::vector<ExprRef> cs2 = {MakeEq(x, MakeConst(w, xv)),
                                MakeEq(y, MakeConst(w, yv)),
                                MakeNe(e, MakeConst(e->width(), expect))};
    EXPECT_FALSE(solver2.IsSatisfiable(cs2)) << ExprToString(e);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifierPropertyTest, ::testing::Range(1, 13));

class SatPropertyTest : public ::testing::TestWithParam<int> {};

// Random 3-SAT instances near the satisfiability threshold: the solver's
// answer is validated against its own model (SAT) or brute force (UNSAT,
// small variable counts only).
TEST_P(SatPropertyTest, ModelSatisfiesOrBruteForceAgrees) {
  std::mt19937_64 rng(GetParam() * 104729);
  const uint32_t num_vars = 12;
  const uint32_t num_clauses = 50;  // ~4.2 ratio: mixed SAT/UNSAT.
  std::vector<std::vector<Lit>> clauses;
  SatSolver solver;
  for (uint32_t v = 0; v < num_vars; ++v) {
    solver.NewVar();
  }
  for (uint32_t c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      uint32_t v = static_cast<uint32_t>(rng() % num_vars);
      clause.push_back(rng() & 1 ? Lit::Pos(v) : Lit::Neg(v));
    }
    clauses.push_back(clause);
    solver.AddClause(clause);
  }
  SatResult result = solver.Solve();
  auto satisfies = [&clauses](uint32_t assignment) {
    for (const auto& clause : clauses) {
      bool sat = false;
      for (Lit l : clause) {
        bool v = (assignment >> l.var()) & 1;
        sat = sat || (l.sign() ? !v : v);
      }
      if (!sat) {
        return false;
      }
    }
    return true;
  };
  if (result == SatResult::kSat) {
    uint32_t model = 0;
    for (uint32_t v = 0; v < num_vars; ++v) {
      model |= solver.ValueOf(v) ? (1u << v) : 0;
    }
    EXPECT_TRUE(satisfies(model));
  } else {
    ASSERT_EQ(result, SatResult::kUnsat);
    for (uint32_t a = 0; a < (1u << num_vars); ++a) {
      ASSERT_FALSE(satisfies(a)) << "solver said UNSAT but " << a << " works";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatPropertyTest, ::testing::Range(1, 21));

TEST(SatTest, ConflictLimitReturnsUnknown) {
  // A hard instance with a tiny conflict budget must return kUnknown.
  SatSolver s;
  constexpr int kPigeons = 7;
  constexpr int kHoles = 6;
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
  EXPECT_EQ(s.Solve(/*max_conflicts=*/5), SatResult::kUnknown);
}

TEST(SlicingTest, IndependentConstraintsAreDropped) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef y = MakeVar(2, 32, "y");
  ExprRef z = MakeVar(3, 32, "z");
  std::vector<ExprRef> constraints = {
      MakeUlt(x, MakeConst(32, 10)),            // Related to x.
      MakeEq(y, MakeConst(32, 5)),              // Unrelated island.
      MakeEq(MakeAdd(x, z), MakeConst(32, 7)),  // Links z to x.
  };
  ExprRef cond = MakeEq(x, MakeConst(32, 3));
  auto slice = ConstraintSolver::IndependentSlice(constraints, cond);
  ASSERT_EQ(slice.size(), 2u);  // The y-island is dropped.
  for (const ExprRef& c : slice) {
    std::map<uint64_t, ExprRef> vars;
    CollectVars(c, &vars);
    EXPECT_EQ(vars.count(2), 0u);
  }
}

TEST(SlicingTest, AnswersUnchangedBySlicing) {
  // MayBeTrue with unrelated constraints present must agree with the
  // unsliced conjunction on satisfiability.
  ExprRef x = MakeVar(1, 16, "x");
  ExprRef y = MakeVar(2, 16, "y");
  std::vector<ExprRef> path = {MakeUlt(x, MakeConst(16, 4)),
                               MakeEq(y, MakeConst(16, 9))};
  ConstraintSolver solver;
  EXPECT_TRUE(solver.MayBeTrue(path, MakeEq(x, MakeConst(16, 2))));
  EXPECT_FALSE(solver.MayBeTrue(path, MakeEq(x, MakeConst(16, 5))));
  EXPECT_GE(solver.stats().sliced_constraints, 1u);
}

TEST(ExprPropertyTest, HashEqualityIsStructural) {
  ExprRef a1 = MakeAdd(MakeVar(1, 32, "x"), MakeConst(32, 5));
  ExprRef a2 = MakeAdd(MakeVar(1, 32, "x"), MakeConst(32, 5));
  EXPECT_NE(a1.get(), a2.get());
  EXPECT_EQ(a1->hash(), a2->hash());
  EXPECT_TRUE(Expr::Equal(a1, a2));
  ExprRef b = MakeAdd(MakeVar(1, 32, "x"), MakeConst(32, 6));
  EXPECT_FALSE(Expr::Equal(a1, b));
}

TEST(ExprPropertyTest, ExprSizeCountsSharedNodesOnce) {
  ExprRef x = MakeVar(1, 32, "x");
  ExprRef sum = MakeAdd(x, x);  // x shared.
  EXPECT_EQ(ExprSize(sum), 2u);
}

}  // namespace
}  // namespace esd::solver
