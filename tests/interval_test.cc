// Property tests for the unsigned interval domain (analysis/interval.h) and
// the solver's range-discharge stage built on it (solver/range.h).
//
// The domain's soundness claim: for any concrete operands inside the
// argument intervals, the concrete result of the matching operation lies
// inside the result interval. The concrete semantics here mirror the
// solver's FoldBinary / EvalExpr evaluator (wraparound arithmetic,
// div-by-zero = all-ones, rem-by-zero = identity, oversized shifts
// zero/sign-fill), which is also what the VM computes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/analysis/interval.h"
#include "src/solver/expr.h"
#include "src/solver/range.h"

namespace esd::analysis {
namespace {

struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed) {}
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

uint64_t Mask(uint32_t width) { return IntervalMask(width); }

int64_t ToSigned(uint64_t v, uint32_t width) {
  return interval_detail::ToSigned(v, width);
}

Interval RandomInterval(Rng& rng, uint32_t width) {
  uint64_t a = rng.Next() & Mask(width);
  uint64_t b = rng.Next() & Mask(width);
  // Bias toward tight ranges: half the time collapse toward a point or a
  // short span, where the transfer functions are supposed to stay exact.
  if (rng.Next() % 2 == 0) {
    b = (a + (rng.Next() % 4)) & Mask(width);
  }
  if (a > b) {
    std::swap(a, b);
  }
  return Interval{a, b};
}

uint64_t RandomWithin(Rng& rng, const Interval& iv) {
  uint64_t span = iv.hi - iv.lo;  // Fits: hi >= lo.
  if (span == ~uint64_t{0}) {
    return rng.Next();
  }
  return iv.lo + rng.Next() % (span + 1);
}

// Concrete semantics matching solver::FoldBinary (and the VM).
uint64_t ConcreteBinary(int op, uint32_t width, uint64_t a, uint64_t b) {
  uint64_t mask = Mask(width);
  switch (op) {
    case 0:
      return (a + b) & mask;
    case 1:
      return (a - b) & mask;
    case 2:
      return (a * b) & mask;
    case 3:
      return b == 0 ? mask : (a / b) & mask;
    case 4:
      return b == 0 ? a : (a % b) & mask;
    case 5:
      return a & b;
    case 6:
      return a | b;
    case 7:
      return a ^ b;
    case 8:
      return b >= width ? 0 : (a << b) & mask;
    case 9:
      return b >= width ? 0 : a >> b;
    case 10: {
      if (b >= width) {
        return (a >> (width - 1)) & 1 ? mask : 0;
      }
      return static_cast<uint64_t>(ToSigned(a, width) >> b) & mask;
    }
    default:
      return 0;
  }
}

Interval TransferBinary(int op, uint32_t width, const Interval& a,
                        const Interval& b) {
  switch (op) {
    case 0:
      return IntervalAdd(a, b, width);
    case 1:
      return IntervalSub(a, b, width);
    case 2:
      return IntervalMul(a, b, width);
    case 3:
      return IntervalUDiv(a, b, width);
    case 4:
      return IntervalURem(a, b, width);
    case 5:
      return IntervalAnd(a, b, width);
    case 6:
      return IntervalOr(a, b, width);
    case 7:
      return IntervalXor(a, b, width);
    case 8:
      return IntervalShl(a, b, width);
    case 9:
      return IntervalLShr(a, b, width);
    case 10:
      return IntervalAShr(a, b, width);
    default:
      return FullInterval(width);
  }
}

const uint32_t kWidths[] = {1, 8, 13, 16, 32, 64};

TEST(IntervalTest, BinaryTransfersAreSound) {
  Rng rng(0x1234567fu);
  const char* names[] = {"add", "sub",  "mul",  "udiv", "urem", "and",
                         "or",  "xor",  "shl",  "lshr", "ashr"};
  for (int iter = 0; iter < 20000; ++iter) {
    uint32_t width = kWidths[rng.Next() % (sizeof(kWidths) / sizeof(*kWidths))];
    Interval ia = RandomInterval(rng, width);
    Interval ib = RandomInterval(rng, width);
    uint64_t a = RandomWithin(rng, ia);
    uint64_t b = RandomWithin(rng, ib);
    for (int op = 0; op <= 10; ++op) {
      Interval r = TransferBinary(op, width, ia, ib);
      ASSERT_LE(r.lo, r.hi) << names[op];
      ASSERT_LE(r.hi, Mask(width)) << names[op];
      uint64_t c = ConcreteBinary(op, width, a, b);
      ASSERT_TRUE(r.Contains(c))
          << names[op] << " width=" << width << " a=" << a << " in [" << ia.lo
          << "," << ia.hi << "] b=" << b << " in [" << ib.lo << "," << ib.hi
          << "] result=" << c << " not in [" << r.lo << "," << r.hi << "]";
    }
  }
}

TEST(IntervalTest, UnaryAndCastTransfersAreSound) {
  Rng rng(0xdeadbee5u);
  for (int iter = 0; iter < 20000; ++iter) {
    uint32_t from = kWidths[rng.Next() % (sizeof(kWidths) / sizeof(*kWidths))];
    uint32_t to = kWidths[rng.Next() % (sizeof(kWidths) / sizeof(*kWidths))];
    Interval ia = RandomInterval(rng, from);
    uint64_t a = RandomWithin(rng, ia);

    Interval rnot = IntervalNot(ia, from);
    ASSERT_TRUE(rnot.Contains(~a & Mask(from))) << "not width=" << from;

    if (to >= from) {
      Interval rz = IntervalZExt(ia, from, to);
      ASSERT_TRUE(rz.Contains(a)) << "zext " << from << "->" << to;
      uint64_t s = static_cast<uint64_t>(ToSigned(a, from)) & Mask(to);
      Interval rs = IntervalSExt(ia, from, to);
      ASSERT_TRUE(rs.Contains(s)) << "sext " << from << "->" << to
                                  << " a=" << a;
    } else {
      Interval rt = IntervalTrunc(ia, to);
      ASSERT_TRUE(rt.Contains(a & Mask(to)))
          << "trunc " << from << "->" << to << " a=" << a;
    }
  }
}

TEST(IntervalTest, ComparisonsAreSound) {
  Rng rng(0xfeedf00du);
  for (int iter = 0; iter < 20000; ++iter) {
    uint32_t width = kWidths[rng.Next() % (sizeof(kWidths) / sizeof(*kWidths))];
    Interval ia = RandomInterval(rng, width);
    Interval ib = RandomInterval(rng, width);
    uint64_t a = RandomWithin(rng, ia);
    uint64_t b = RandomWithin(rng, ib);
    ASSERT_TRUE(IntervalEq(ia, ib).Contains(a == b ? 1 : 0));
    ASSERT_TRUE(IntervalUlt(ia, ib).Contains(a < b ? 1 : 0));
    ASSERT_TRUE(IntervalUle(ia, ib).Contains(a <= b ? 1 : 0));
    ASSERT_TRUE(IntervalSlt(ia, ib, width)
                    .Contains(ToSigned(a, width) < ToSigned(b, width) ? 1 : 0));
    ASSERT_TRUE(IntervalSle(ia, ib, width)
                    .Contains(ToSigned(a, width) <= ToSigned(b, width) ? 1 : 0));

    Interval ic = RandomInterval(rng, 1);
    uint64_t c = RandomWithin(rng, ic);
    ASSERT_TRUE(IntervalSelect(ic, ia, ib).Contains(c ? a : b));
  }
}

TEST(IntervalTest, LatticeOperations) {
  Interval a{2, 5}, b{4, 9}, c{10, 12};
  EXPECT_EQ(IntervalUnion(a, b), (Interval{2, 9}));
  EXPECT_EQ(*IntervalIntersect(a, b), (Interval{4, 5}));
  EXPECT_FALSE(IntervalIntersect(a, c).has_value());
  EXPECT_TRUE(IsFullInterval(FullInterval(8), 8));
  EXPECT_EQ(PointInterval(0x1ff, 8), (Interval{0xff, 0xff}));
}

// ---- Range-discharge stage (solver/range.h) ------------------------------

// Random constraint sets over two 8-bit variables: every verdict the stage
// returns must be truthful. kSat witnesses are checked against EvalExpr by
// the stage itself; here we re-check them independently, and kUnsat claims
// are brute-forced over the full 2^16 assignment space.
TEST(RangeDischargeTest, VerdictsAreTruthful) {
  using solver::ExprRef;
  Rng rng(0xabcdef12u);
  auto k8 = [&rng](uint64_t mod) { return solver::MakeConst(8, rng.Next() % mod); };
  auto all_true = [](const std::vector<ExprRef>& cs,
                     const std::map<uint64_t, uint64_t>& asg) {
    for (const ExprRef& c : cs) {
      if (solver::EvalExpr(c, asg) == 0) {
        return false;
      }
    }
    return true;
  };
  auto satisfiable = [&all_true](const std::vector<ExprRef>& cs) {
    std::map<uint64_t, uint64_t> asg;
    for (uint32_t vx = 0; vx < 256; ++vx) {
      for (uint32_t vy = 0; vy < 256; ++vy) {
        asg[1] = vx;
        asg[2] = vy;
        if (all_true(cs, asg)) {
          return true;
        }
      }
    }
    return false;
  };
  int sat = 0, unsat = 0, pinned_unsat = 0, unknown = 0;
  for (int iter = 0; iter < 400; ++iter) {
    ExprRef x = solver::MakeVar(1, 8, "x");
    ExprRef y = solver::MakeVar(2, 8, "y");
    // x stored as two nibbles and loaded back: the factories rejoin it.
    ExprRef x_reloaded = solver::MakeConcat(solver::MakeExtract(x, 4, 4),
                                            solver::MakeExtract(x, 0, 4));
    // A guard-chain-shaped pool: arithmetic over x, y and small constants,
    // compared against random magics — the shapes synthesis actually emits.
    // `chain` marks the eq conjuncts over a bijective chain of x alone.
    std::vector<ExprRef> pool;
    std::vector<bool> chain;
    auto add = [&pool, &chain](ExprRef c, bool is_chain) {
      pool.push_back(std::move(c));
      chain.push_back(is_chain);
    };
    ExprRef ax = solver::MakeAdd(
        solver::MakeMul(x, solver::MakeConst(8, 1 + 2 * (rng.Next() % 8))),
        k8(16));
    ExprRef mxy = solver::MakeMul(x, y);
    add(solver::MakeEq(ax, k8(256)), true);
    add(solver::MakeLogicalNot(
            solver::MakeEq(mxy, solver::MakeConst(8, 1 + rng.Next() % 255))),
        false);
    ExprRef plain_bound =
        solver::MakeUlt(x, solver::MakeConst(8, 1 + rng.Next() % 255));
    add(plain_bound, false);
    add(solver::MakeUle(k8(256), y), false);
    add(solver::MakeEq(y, k8(256)), false);
    add(solver::MakeEq(solver::MakeSub(k8(256), x), k8(256)), true);
    add(solver::MakeEq(solver::MakeXor(x, k8(256)), k8(256)), true);
    add(solver::MakeEq(solver::MakeNot(x), k8(256)), true);
    add(solver::MakeLogicalNot(solver::MakeUlt(k8(256), x)), false);
    add(solver::MakeLogicalNot(solver::MakeUle(x, k8(256))), false);
    add(solver::MakeEq(solver::MakeAdd(x_reloaded, k8(16)), k8(256)), true);
    add(solver::MakeUlt(solver::MakeConcat(y, x),
                        solver::MakeConst(16, rng.Next() % 65536)),
        false);
    // Three conjuncts on average, so that sets stay satisfiable often.
    std::vector<ExprRef> constraints;
    std::vector<ExprRef> without_chains;
    bool has_chain = false;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (rng.Next() % 4 == 0) {
        constraints.push_back(pool[i]);
        if (chain[i]) {
          has_chain = true;
        } else {
          without_chains.push_back(pool[i]);
        }
      }
    }
    if (constraints.empty()) {
      constraints.push_back(pool[0]);
      has_chain = true;
    }
    solver::RangeResult r = solver::TryRangeDischarge(constraints);
    if (r.outcome == solver::RangeResult::Outcome::kSat) {
      ++sat;
      ASSERT_TRUE(all_true(constraints, r.witness)) << "bogus witness";
    } else if (r.outcome == solver::RangeResult::Outcome::kUnsat) {
      ++unsat;
      ASSERT_FALSE(satisfiable(constraints)) << "kUnsat but satisfiable";
      // With no plain bound on x, intervals alone never narrow x, and a
      // chain over the full range of x spans the full range. So when the
      // conjuncts besides the chains are satisfiable, only pinning x
      // through a chain can have refuted the set.
      bool plain_bounded = false;
      for (const ExprRef& c : constraints) {
        plain_bounded = plain_bounded || c.get() == plain_bound.get();
      }
      if (has_chain && !plain_bounded && satisfiable(without_chains)) {
        ++pinned_unsat;
      }
    } else {
      ++unknown;
    }
  }
  // The stage must actually fire on this pool, both ways, and its pin must
  // refute some sets on its own.
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
  EXPECT_GT(pinned_unsat, 0);
  (void)unknown;
}

// The exact shape the discharge stage exists for: a "not(mul == K)"
// re-query chain is true at the zero point, no SAT call needed.
TEST(RangeDischargeTest, DischargesMulGuardChain) {
  using solver::ExprRef;
  ExprRef x = solver::MakeVar(7, 32, "x");
  ExprRef y = solver::MakeVar(8, 32, "y");
  std::vector<ExprRef> cs;
  for (uint64_t k = 1; k <= 4; ++k) {
    cs.push_back(solver::MakeLogicalNot(
        solver::MakeEq(solver::MakeMul(x, y), solver::MakeConst(32, 100 + k))));
  }
  solver::RangeResult r = solver::TryRangeDischarge(cs);
  ASSERT_EQ(r.outcome, solver::RangeResult::Outcome::kSat);
  for (const ExprRef& c : cs) {
    EXPECT_NE(solver::EvalExpr(c, r.witness), 0u);
  }
}

TEST(RangeDischargeTest, RefutesContradictoryBounds) {
  using solver::ExprRef;
  ExprRef x = solver::MakeVar(3, 16, "x");
  std::vector<ExprRef> cs;
  cs.push_back(solver::MakeUlt(x, solver::MakeConst(16, 5)));     // x < 5
  cs.push_back(solver::MakeUle(solver::MakeConst(16, 9), x));     // x >= 9
  EXPECT_EQ(TryRangeDischarge(cs).outcome,
            solver::RangeResult::Outcome::kUnsat);
}

}  // namespace
}  // namespace esd::analysis
