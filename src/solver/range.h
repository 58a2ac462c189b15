// ESD solver stage 3: interval value-range discharge.
//
// Before a constraint component reaches the bit-blaster, try to decide it
// with interval reasoning over the expression DAG:
//
//   1. Refine: constraints of the shape ult/ule(v, C), their negations
//      not(ult(a, b)) == ule(b, a) and not(ule(a, b)) == ult(b, a) (either
//      operand order), and eq(f(v), C) narrow the range of variable v. For
//      eq, f is a chain of bijections of v — add, sub or xor with a
//      constant, an odd multiplier, bitwise not, zext — so v is pinned to
//      the point f^-1(C) exactly (and a C outside a zext's range is UNSAT).
//      A contradictory narrowing (empty intersection) decides the component
//      UNSAT.
//   2. Refute: every constraint is interval-evaluated bottom-up over the
//      DAG under the refined variable ranges. A constraint whose result
//      range is exactly [0,0] can never be true — the component is UNSAT.
//   3. Witness: the refined ranges suggest a concrete point (each refined
//      variable at its lower bound, unrefined variables at 0). If that
//      assignment concretely satisfies every constraint, the component is
//      SAT with the assignment as a complete model. Otherwise unsatisfied
//      eq conjuncts are steered onto a variable through the same chains,
//      now allowed to guess (other operands pinned at their current value,
//      one factor of x*y parked at 1), and the result is checked again.
//
// The stage is sound in both directions (an interval result always contains
// the concrete result, a pin is the only value its conjunct admits, and a
// witness is checked by exact evaluation) and cheap:
// two linear passes over the DAG, no search. It targets the dominant guard
// shapes in ESD workloads — input guards eq(x * odd + c, magic) and their
// negations, negated equality chains like not(eq(mul(x, y), K)), true at
// the zero point, and pinned re-queries eq(v, C) — which otherwise cost a
// SAT call each.
#ifndef ESD_SRC_SOLVER_RANGE_H_
#define ESD_SRC_SOLVER_RANGE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/solver/expr.h"

namespace esd::solver {

struct RangeResult {
  enum class Outcome {
    kUnknown,  // Intervals could not decide; fall through to SAT.
    kUnsat,    // Some constraint is provably always-false.
    kSat,      // `witness` concretely satisfies every constraint.
  };
  Outcome outcome = Outcome::kUnknown;
  // Complete model for the component's variables (only when kSat).
  std::map<uint64_t, uint64_t> witness;
};

// Attempts to decide the conjunction of `constraints` (one independence
// component) by the three interval steps above.
RangeResult TryRangeDischarge(const std::vector<ExprRef>& constraints);

}  // namespace esd::solver

#endif  // ESD_SRC_SOLVER_RANGE_H_
