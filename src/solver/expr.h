// ESD solver: immutable bitvector expression DAG.
//
// Expressions are reference-counted immutable nodes of width 1..64 bits.
// Construction goes through the factory functions below, which constant-fold
// and apply algebraic simplifications (so downstream code can rely on, e.g.,
// a kConst node never having children). They also collapse byte-wise
// reloads: MakeConcat rejoins adjacent extracts of one value, so a value
// stored byte by byte and loaded back is the original node again. Boolean
// expressions are width-1 bitvectors.
//
// Every node also records, when it is built, the sorted ids of the distinct
// variables under it (its variable summary): {aux} for a kVar, nothing for
// a kConst, and the union of the kids' summaries otherwise. Up to
// Expr::kInlineVars ids are held in the node; past that the node is marked
// overflowed and holds none, and a consumer walks the DAG instead
// (AppendVarIds does both). A kid that overflowed makes its parent overflow
// too, so the marker is set exactly when the ids do not fit. Nodes are
// immutable, so summaries are safe to read from any thread.
#ifndef ESD_SRC_SOLVER_EXPR_H_
#define ESD_SRC_SOLVER_EXPR_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
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
  // Kids a node can have: kIte has three, every other kind at most two.
  // They are held in the node, so a node is one allocation.
  static constexpr size_t kMaxKids = 3;
  // Variable ids a node holds inline (see the summary above). Four keeps
  // sizeof(Expr) at 104 bytes with the inline kids, so a pooled node and
  // its shared_ptr control block fit one 128-byte arena block; the kVar
  // name lives only in kVar nodes.
  static constexpr size_t kInlineVars = 4;

  // Builds a node of any kind but kVar, which only MakeVar creates. At most
  // kMaxKids kids.
  Expr(ExprKind kind, uint32_t width, uint64_t aux, std::initializer_list<ExprRef> kids);

  ExprKind kind() const { return kind_; }
  uint32_t width() const { return width_; }
  uint64_t aux() const { return aux_; }
  std::span<const ExprRef> kids() const { return {kids_, num_kids_}; }
  // The symbolic-input name of a kVar; empty for every other kind.
  const std::string& name() const;
  size_t hash() const { return hash_; }

  // True when more than kInlineVars distinct variables lie under this node,
  // so var_ids() is empty and the ids must be found by a walk.
  bool vars_overflow() const { return num_vars_ == kVarsOverflow; }
  // The sorted ids of the distinct variables under this node (empty for a
  // variable-free node and for an overflowed one).
  std::span<const uint64_t> var_ids() const {
    return {vars_, vars_overflow() ? size_t{0} : size_t{num_vars_}};
  }

  bool IsConst() const { return kind_ == ExprKind::kConst; }
  bool IsConstValue(uint64_t v) const { return IsConst() && aux_ == v; }
  bool IsTrue() const { return width_ == 1 && IsConstValue(1); }
  bool IsFalse() const { return width_ == 1 && IsConstValue(0); }

  // Structural equality (uses the cached hash as a fast path).
  static bool Equal(const ExprRef& a, const ExprRef& b);

 protected:
  struct VarTag {};
  // A kVar node over variable `id` (its summary is {id}).
  Expr(VarTag, uint32_t width, uint64_t id);

 private:
  static constexpr uint8_t kVarsOverflow = 0xff;

  ExprKind kind_;
  uint8_t num_vars_ = 0;  // Ids in vars_, or kVarsOverflow.
  uint8_t num_kids_ = 0;  // Filled entries of kids_.
  uint32_t width_;
  uint64_t aux_;
  size_t hash_;
  ExprRef kids_[kMaxKids];
  uint64_t vars_[kInlineVars] = {};
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

// Appends the sorted ids of the distinct variables under `e` to `ids`: the
// summary when it fits, else a walk of the overflowed nodes (whose
// non-overflowed kids still answer from their summaries).
void AppendVarIds(const ExprRef& e, std::vector<uint64_t>* ids);

// Collects the distinct variables referenced by `e` into `vars` (id -> expr)
// for the consumers that need the variable nodes themselves (widths, names,
// bit-blaster lookups). Skips constants and any subtree whose summary names
// only variables already in `vars`.
void CollectVars(const ExprRef& e, std::map<uint64_t, ExprRef>* vars);

// Number of nodes in the DAG rooted at `e` (distinct by pointer).
size_t ExprSize(const ExprRef& e);

// Human-readable rendering, e.g. "(add v0 (const 3))".
std::string ExprToString(const ExprRef& e);

}  // namespace esd::solver

#endif  // ESD_SRC_SOLVER_EXPR_H_
