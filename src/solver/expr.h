// ESD solver: immutable bitvector expression DAG.
//
// Expressions are reference-counted immutable nodes of width 1..64 bits.
// Construction goes through the factory functions below, which constant-fold
// and apply algebraic simplifications (so downstream code can rely on, e.g.,
// a kConst node never having children). They also collapse byte-wise
// reloads: MakeConcat rejoins adjacent extracts of one value, so a value
// stored byte by byte and loaded back is the original node again. Boolean
// expressions are width-1 bitvectors.
#ifndef ESD_SRC_SOLVER_EXPR_H_
#define ESD_SRC_SOLVER_EXPR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace esd::solver {

enum class ExprKind : uint8_t {
  kConst,    // aux = value
  kVar,      // aux = variable id; name() gives the symbolic-input name
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kSDiv,
  kURem,
  kSRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  kNot,
  kEq,       // width-1 result
  kUlt,      // width-1 result
  kUle,      // width-1 result
  kSlt,      // width-1 result
  kSle,      // width-1 result
  kConcat,   // kids[0] = high bits, kids[1] = low bits
  kExtract,  // aux = low bit index; width = extracted width
  kZExt,
  kSExt,
  kIte,      // kids: cond (width 1), then, else
};

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

class Expr {
 public:
  Expr(ExprKind kind, uint32_t width, uint64_t aux, std::vector<ExprRef> kids,
       std::string name = {});

  ExprKind kind() const { return kind_; }
  uint32_t width() const { return width_; }
  uint64_t aux() const { return aux_; }
  const std::vector<ExprRef>& kids() const { return kids_; }
  const std::string& name() const { return name_; }
  size_t hash() const { return hash_; }

  bool IsConst() const { return kind_ == ExprKind::kConst; }
  bool IsConstValue(uint64_t v) const { return IsConst() && aux_ == v; }
  bool IsTrue() const { return width_ == 1 && IsConstValue(1); }
  bool IsFalse() const { return width_ == 1 && IsConstValue(0); }

  // Structural equality (uses the cached hash as a fast path).
  static bool Equal(const ExprRef& a, const ExprRef& b);

 private:
  ExprKind kind_;
  uint32_t width_;
  uint64_t aux_;
  std::vector<ExprRef> kids_;
  std::string name_;  // Only for kVar.
  size_t hash_;
};

// Mask of `width` one-bits (width in [1, 64]).
constexpr uint64_t WidthMask(uint32_t width) {
  return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

// ---- Factory functions (simplifying constructors) ----

ExprRef MakeConst(uint32_t width, uint64_t value);
ExprRef MakeTrue();
ExprRef MakeFalse();
ExprRef MakeBool(bool v);
// Creates a fresh symbolic variable. `id` must be process-unique (the VM's
// SymbolTable hands these out); `name` is the human-readable input name.
ExprRef MakeVar(uint64_t id, uint32_t width, std::string name);

ExprRef MakeAdd(ExprRef a, ExprRef b);
ExprRef MakeSub(ExprRef a, ExprRef b);
ExprRef MakeMul(ExprRef a, ExprRef b);
ExprRef MakeUDiv(ExprRef a, ExprRef b);
ExprRef MakeSDiv(ExprRef a, ExprRef b);
ExprRef MakeURem(ExprRef a, ExprRef b);
ExprRef MakeSRem(ExprRef a, ExprRef b);
ExprRef MakeAnd(ExprRef a, ExprRef b);
ExprRef MakeOr(ExprRef a, ExprRef b);
ExprRef MakeXor(ExprRef a, ExprRef b);
ExprRef MakeShl(ExprRef a, ExprRef b);
ExprRef MakeLShr(ExprRef a, ExprRef b);
ExprRef MakeAShr(ExprRef a, ExprRef b);
ExprRef MakeNot(ExprRef a);

ExprRef MakeEq(ExprRef a, ExprRef b);
ExprRef MakeNe(ExprRef a, ExprRef b);
ExprRef MakeUlt(ExprRef a, ExprRef b);
ExprRef MakeUle(ExprRef a, ExprRef b);
ExprRef MakeSlt(ExprRef a, ExprRef b);
ExprRef MakeSle(ExprRef a, ExprRef b);

// Logical connectives on width-1 expressions.
ExprRef MakeLogicalAnd(ExprRef a, ExprRef b);
ExprRef MakeLogicalOr(ExprRef a, ExprRef b);
ExprRef MakeLogicalNot(ExprRef a);

ExprRef MakeConcat(ExprRef high, ExprRef low);
ExprRef MakeExtract(ExprRef a, uint32_t low_bit, uint32_t width);
ExprRef MakeZExt(ExprRef a, uint32_t width);
ExprRef MakeSExt(ExprRef a, uint32_t width);
ExprRef MakeIte(ExprRef cond, ExprRef then_e, ExprRef else_e);

// ---- Utilities ----

// Evaluates `e` under `assignment` (var id -> value). Unassigned variables
// evaluate to 0. Division by zero yields all-ones (matching the bit-blaster's
// encoding).
uint64_t EvalExpr(const ExprRef& e, const std::map<uint64_t, uint64_t>& assignment);

// Collects the distinct variables referenced by `e` into `vars` (id -> expr).
void CollectVars(const ExprRef& e, std::map<uint64_t, ExprRef>* vars);

// Number of nodes in the DAG rooted at `e` (distinct by pointer).
size_t ExprSize(const ExprRef& e);

// Human-readable rendering, e.g. "(add v0 (const 3))".
std::string ExprToString(const ExprRef& e);

}  // namespace esd::solver

#endif  // ESD_SRC_SOLVER_EXPR_H_
