#include "src/solver/range.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "src/analysis/interval.h"

namespace esd::solver {
namespace {

using analysis::FullInterval;
using analysis::Interval;
using analysis::IntervalIntersect;
using analysis::IntervalMask;
using analysis::PointInterval;

using RangeEnv = std::map<uint64_t, Interval>;

// Inverse of an odd multiplier mod 2^64 (Newton: each step doubles the
// number of correct low bits, 5 steps from a 3-bit-correct seed).
uint64_t ModInverseOdd(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 5; ++i) {
    x *= 2 - a * x;
  }
  return x;
}

// How SteerOnto reached (or missed) its target.
enum class Steer {
  kStuck,       // An operation it cannot invert, or a guess that missed.
  kImpossible,  // Bijections only, and no value of the variable works.
  kGuessed,     // Reached after some guess: one value that may work.
  kExact,       // Bijections only: the value written is the only one.
};

// A result reached through a guess holds only for that guess.
Steer AfterGuess(Steer s) {
  switch (s) {
    case Steer::kExact:
      return Steer::kGuessed;
    case Steer::kImpossible:
      return Steer::kStuck;
    default:
      return s;
  }
}

// Steers `e` to evaluate to `target` by descending through invertible
// operations until a variable absorbs the residue; that variable's value is
// written to `asg`. Add, sub and xor with a constant, an odd multiplier,
// bitwise not and zext are bijections of the steered operand (zext onto its
// range), so a walk made only of them is exact. With `guess`, the walk also
// steps through a non-constant operand, pinned at its value under `asg`
// (which the caller seeds for every variable), and through x * y by
// parking one factor at 1. Without it, those steps stop the walk.
Steer SteerOnto(const ExprRef& e, uint64_t target, bool guess,
                std::map<uint64_t, uint64_t>* asg) {
  target &= IntervalMask(e->width());
  std::span<const ExprRef> kids = e->kids();
  switch (e->kind()) {
    case ExprKind::kVar:
      (*asg)[e->aux()] = target;
      return Steer::kExact;
    case ExprKind::kConst:
      return e->aux() == target ? Steer::kGuessed : Steer::kImpossible;
    case ExprKind::kNot:
      return SteerOnto(kids[0], ~target, guess, asg);
    case ExprKind::kAdd:
    case ExprKind::kXor:
    case ExprKind::kSub: {
      // The value of operand `i` that makes e == target, given the other.
      auto undo = [&e, target](int i, uint64_t other) -> uint64_t {
        switch (e->kind()) {
          case ExprKind::kAdd:
            return target - other;
          case ExprKind::kXor:
            return target ^ other;
          default:
            return i == 0 ? target + other : other - target;
        }
      };
      if (kids[1]->IsConst()) {
        return SteerOnto(kids[0], undo(0, kids[1]->aux()), guess, asg);
      }
      if (kids[0]->IsConst()) {
        return SteerOnto(kids[1], undo(1, kids[0]->aux()), guess, asg);
      }
      if (!guess) {
        return Steer::kStuck;
      }
      return AfterGuess(
          SteerOnto(kids[0], undo(0, EvalExpr(kids[1], *asg)), guess, asg));
    }
    case ExprKind::kMul:
      if (kids[1]->IsConst() && (kids[1]->aux() & 1) != 0) {
        return SteerOnto(kids[0], target * ModInverseOdd(kids[1]->aux()), guess,
                         asg);
      }
      if (kids[0]->IsConst() && (kids[0]->aux() & 1) != 0) {
        return SteerOnto(kids[1], target * ModInverseOdd(kids[0]->aux()), guess,
                         asg);
      }
      if (!guess) {
        return Steer::kStuck;
      }
      // x * y: park one factor at 1 and steer the other.
      for (int park = 1; park >= 0; --park) {
        if (kids[park]->kind() == ExprKind::kVar) {
          (*asg)[kids[park]->aux()] = 1;
          return AfterGuess(SteerOnto(kids[1 - park], target, guess, asg));
        }
      }
      return Steer::kStuck;
    case ExprKind::kZExt:
      if (target > IntervalMask(kids[0]->width())) {
        return Steer::kImpossible;  // Above every zero-extended value.
      }
      return SteerOnto(kids[0], target, guess, asg);
    default:
      return Steer::kStuck;
  }
}

// Step 1: narrow variable ranges from directly-refining constraint shapes.
// Returns false when a narrowing is contradictory (component UNSAT).
bool RefineEnv(const std::vector<ExprRef>& constraints, RangeEnv* env) {
  for (const ExprRef& c : constraints) {
    ExprKind k = c->kind();
    const ExprRef* lhs = nullptr;
    const ExprRef* rhs = nullptr;
    if (k == ExprKind::kEq || k == ExprKind::kUlt || k == ExprKind::kUle) {
      lhs = &c->kids()[0];
      rhs = &c->kids()[1];
    } else if (k == ExprKind::kNot &&
               (c->kids()[0]->kind() == ExprKind::kUlt ||
                c->kids()[0]->kind() == ExprKind::kUle)) {
      // not(a < b) is b <= a, and not(a <= b) is b < a.
      const ExprRef& cmp = c->kids()[0];
      k = cmp->kind() == ExprKind::kUlt ? ExprKind::kUle : ExprKind::kUlt;
      lhs = &cmp->kids()[1];
      rhs = &cmp->kids()[0];
    } else {
      continue;
    }
    bool const_on_right = (*rhs)->IsConst();
    if (const_on_right == (*lhs)->IsConst()) {
      continue;  // Needs exactly one constant side.
    }
    const ExprRef& side = const_on_right ? *lhs : *rhs;
    uint64_t bound = (const_on_right ? *rhs : *lhs)->aux();
    uint64_t id = 0;
    Interval refine;
    if (k == ExprKind::kEq) {
      // eq(f(x), C) with f a chain of bijections pins x to f^-1(C).
      std::map<uint64_t, uint64_t> pin;
      Steer s = SteerOnto(side, bound, /*guess=*/false, &pin);
      if (s == Steer::kImpossible) {
        return false;  // C lies outside f's range.
      }
      if (s != Steer::kExact) {
        continue;
      }
      id = pin.begin()->first;
      refine = Interval{pin.begin()->second, pin.begin()->second};
    } else {
      if (side->kind() != ExprKind::kVar) {
        continue;
      }
      id = side->aux();
      uint64_t mask = IntervalMask(side->width());
      if (k == ExprKind::kUlt) {
        if (const_on_right) {
          if (bound == 0) {
            return false;  // v < 0: no unsigned value qualifies.
          }
          refine = Interval{0, bound - 1};
        } else {
          if (bound >= mask) {
            return false;  // mask < v: nothing above the top value.
          }
          refine = Interval{bound + 1, mask};
        }
      } else {  // kUle
        refine = const_on_right ? Interval{0, bound} : Interval{bound, mask};
      }
    }
    auto [it, inserted] = env->emplace(id, refine);
    if (!inserted) {
      std::optional<Interval> meet = IntervalIntersect(it->second, refine);
      if (!meet.has_value()) {
        return false;  // Two conjuncts pin v to disjoint ranges.
      }
      it->second = *meet;
    }
  }
  return true;
}

// Step 2: bottom-up interval evaluation over the DAG, memoized by node
// pointer (the DAG shares subtrees heavily).
class IntervalEval {
 public:
  explicit IntervalEval(const RangeEnv& env) : env_(env) {}

  Interval Eval(const ExprRef& e) {
    auto it = memo_.find(e.get());
    if (it != memo_.end()) {
      return it->second;
    }
    Interval r = Compute(e);
    memo_.emplace(e.get(), r);
    return r;
  }

 private:
  Interval Compute(const ExprRef& e) {
    using namespace analysis;  // Interval transfer functions.
    uint32_t w = e->width();
    switch (e->kind()) {
      case ExprKind::kConst:
        return PointInterval(e->aux(), w);
      case ExprKind::kVar: {
        auto it = env_.find(e->aux());
        return it == env_.end() ? FullInterval(w) : it->second;
      }
      case ExprKind::kAdd:
        return IntervalAdd(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kSub:
        return IntervalSub(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kMul:
        return IntervalMul(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kUDiv:
        return IntervalUDiv(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kURem:
        return IntervalURem(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kAnd:
        return IntervalAnd(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kOr:
        return IntervalOr(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kXor:
        return IntervalXor(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kShl:
        return IntervalShl(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kLShr:
        return IntervalLShr(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kAShr:
        return IntervalAShr(Eval(e->kids()[0]), Eval(e->kids()[1]), w);
      case ExprKind::kNot:
        return IntervalNot(Eval(e->kids()[0]), w);
      case ExprKind::kEq:
        return IntervalEq(Eval(e->kids()[0]), Eval(e->kids()[1]));
      case ExprKind::kUlt:
        return IntervalUlt(Eval(e->kids()[0]), Eval(e->kids()[1]));
      case ExprKind::kUle:
        return IntervalUle(Eval(e->kids()[0]), Eval(e->kids()[1]));
      case ExprKind::kSlt:
        return IntervalSlt(Eval(e->kids()[0]), Eval(e->kids()[1]),
                           e->kids()[0]->width());
      case ExprKind::kSle:
        return IntervalSle(Eval(e->kids()[0]), Eval(e->kids()[1]),
                           e->kids()[0]->width());
      case ExprKind::kZExt:
        return IntervalZExt(Eval(e->kids()[0]), e->kids()[0]->width(), w);
      case ExprKind::kSExt:
        return IntervalSExt(Eval(e->kids()[0]), e->kids()[0]->width(), w);
      case ExprKind::kExtract:
        if (e->aux() == 0) {
          return IntervalTrunc(Eval(e->kids()[0]), w);
        }
        return FullInterval(w);
      case ExprKind::kConcat: {
        Interval hi = Eval(e->kids()[0]);
        Interval lo = Eval(e->kids()[1]);
        uint32_t low_w = e->kids()[1]->width();
        if (hi.IsPoint() && low_w < 64) {
          uint64_t base = hi.lo << low_w;
          if (base <= IntervalMask(w) - lo.hi) {
            return Interval{base + lo.lo, base + lo.hi};
          }
        }
        return FullInterval(w);
      }
      case ExprKind::kIte:
        return IntervalSelect(Eval(e->kids()[0]), Eval(e->kids()[1]),
                              Eval(e->kids()[2]));
      case ExprKind::kSDiv:
      case ExprKind::kSRem:
        return FullInterval(w);  // Signed division: not tracked.
    }
    return FullInterval(w);
  }

  const RangeEnv& env_;
  std::unordered_map<const Expr*, Interval> memo_;
};

}  // namespace

RangeResult TryRangeDischarge(const std::vector<ExprRef>& constraints) {
  RangeResult result;
  RangeEnv env;
  if (!RefineEnv(constraints, &env)) {
    result.outcome = RangeResult::Outcome::kUnsat;
    return result;
  }

  IntervalEval eval(env);
  for (const ExprRef& c : constraints) {
    Interval r = eval.Eval(c);
    if (r.hi == 0) {  // Width-1 result pinned to 0: provably false.
      result.outcome = RangeResult::Outcome::kUnsat;
      return result;
    }
  }

  // Witness probes, each checked by exact evaluation so a wrong guess costs
  // nothing but this pass. First the point guesses (refined bounds, others
  // 0), then an equality-inversion pass: unsatisfied Eq conjuncts are
  // steered onto a variable by SteerOnto, guesses allowed (var*var parks
  // one factor at 1) — the shape of the symbolic guard chains the synthesis
  // branch feasibility checks keep re-asking.
  std::vector<uint64_t> ids;
  for (const ExprRef& c : constraints) {
    AppendVarIds(c, &ids);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto Satisfies = [&constraints](const std::map<uint64_t, uint64_t>& asg) {
    for (const ExprRef& c : constraints) {
      if (EvalExpr(c, asg) == 0) {
        return false;
      }
    }
    return true;
  };
  std::map<uint64_t, uint64_t> lo_probe;
  std::map<uint64_t, uint64_t> hi_probe;
  for (uint64_t id : ids) {
    auto it = env.find(id);
    lo_probe[id] = it == env.end() ? 0 : it->second.lo;
    hi_probe[id] = it == env.end() ? 0 : it->second.hi;
  }
  for (auto* probe : {&lo_probe, &hi_probe}) {
    if (Satisfies(*probe)) {
      result.outcome = RangeResult::Outcome::kSat;
      result.witness = std::move(*probe);
      return result;
    }
  }
  std::map<uint64_t, uint64_t> steered = lo_probe;
  // Two passes: steering a later conjunct can invalidate an earlier one
  // once, but the chains share one pivot variable, so a second sweep
  // reconverges when it is going to converge at all.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const ExprRef& c : constraints) {
      if (c->kind() != ExprKind::kEq || EvalExpr(c, steered) != 0) {
        continue;
      }
      Steer s = SteerOnto(c->kids()[0], EvalExpr(c->kids()[1], steered),
                          /*guess=*/true, &steered);
      if (s == Steer::kStuck || s == Steer::kImpossible) {
        SteerOnto(c->kids()[1], EvalExpr(c->kids()[0], steered),
                  /*guess=*/true, &steered);
      }
    }
    if (Satisfies(steered)) {
      result.outcome = RangeResult::Outcome::kSat;
      result.witness = std::move(steered);
      return result;
    }
  }
  return result;  // kUnknown: every probe missed.
}

}  // namespace esd::solver
