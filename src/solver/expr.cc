#include "src/solver/expr.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <functional>
#include <set>
#include <sstream>

#include "src/core/arena.h"
#include "src/core/event_counters.h"

namespace esd::solver {
namespace {

size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

int64_t ToSigned(uint64_t v, uint32_t width) {
  if (width < 64 && (v >> (width - 1)) & 1) {
    return static_cast<int64_t>(v | ~WidthMask(width));
  }
  return static_cast<int64_t>(v);
}

uint64_t FoldBinary(ExprKind kind, uint32_t width, uint64_t a, uint64_t b) {
  uint64_t mask = WidthMask(width);
  switch (kind) {
    case ExprKind::kAdd:
      return (a + b) & mask;
    case ExprKind::kSub:
      return (a - b) & mask;
    case ExprKind::kMul:
      return (a * b) & mask;
    case ExprKind::kUDiv:
      return b == 0 ? mask : (a / b) & mask;
    case ExprKind::kURem:
      return b == 0 ? a : (a % b) & mask;
    case ExprKind::kSDiv: {
      if (b == 0) {
        return mask;
      }
      int64_t sa = ToSigned(a, width);
      int64_t sb = ToSigned(b, width);
      if (sb == -1 && sa == ToSigned(uint64_t{1} << (width - 1), width)) {
        return a;  // Overflow case: INT_MIN / -1 wraps.
      }
      return static_cast<uint64_t>(sa / sb) & mask;
    }
    case ExprKind::kSRem: {
      if (b == 0) {
        return a;
      }
      int64_t sa = ToSigned(a, width);
      int64_t sb = ToSigned(b, width);
      if (sb == -1) {
        return 0;
      }
      return static_cast<uint64_t>(sa % sb) & mask;
    }
    case ExprKind::kAnd:
      return a & b;
    case ExprKind::kOr:
      return a | b;
    case ExprKind::kXor:
      return a ^ b;
    case ExprKind::kShl:
      return b >= width ? 0 : (a << b) & mask;
    case ExprKind::kLShr:
      return b >= width ? 0 : (a >> b);
    case ExprKind::kAShr: {
      if (b >= width) {
        return (a >> (width - 1)) & 1 ? mask : 0;
      }
      int64_t sa = ToSigned(a, width);
      return static_cast<uint64_t>(sa >> b) & mask;
    }
    case ExprKind::kEq:
      return a == b;
    case ExprKind::kUlt:
      return a < b;
    case ExprKind::kUle:
      return a <= b;
    case ExprKind::kSlt:
      return ToSigned(a, width) < ToSigned(b, width);
    case ExprKind::kSle:
      return ToSigned(a, width) <= ToSigned(b, width);
    default:
      assert(false && "not a foldable binary kind");
      return 0;
  }
}

bool IsCommutative(ExprKind kind) {
  switch (kind) {
    case ExprKind::kAdd:
    case ExprKind::kMul:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor:
    case ExprKind::kEq:
      return true;
    default:
      return false;
  }
}

size_t NodeHash(ExprKind kind, uint32_t width, uint64_t aux,
                std::span<const ExprRef> kids) {
  size_t h = HashCombine(static_cast<size_t>(kind), width);
  h = HashCombine(h, static_cast<size_t>(aux));
  for (const ExprRef& k : kids) {
    h = HashCombine(h, k->hash());
  }
  return h;
}

// A kVar node: the one kind that carries a name, so no other node pays for
// a std::string.
struct VarExpr final : Expr {
  VarExpr(uint32_t width, uint64_t id, std::string input_name)
      : Expr(VarTag{}, width, id), name(std::move(input_name)) {}
  std::string name;
};

ExprRef MakeNode(ExprKind kind, uint32_t width, uint64_t aux,
                 std::initializer_list<ExprRef> kids) {
  CountEvent(&EventCounters::expr_allocs);
  return std::allocate_shared<Expr>(core::ArenaAllocator<Expr>(), kind, width, aux, kids);
}

// Generic simplifying binary constructor for arithmetic/bitwise kinds
// (result width = operand width). Comparisons handled separately.
ExprRef MakeBinary(ExprKind kind, ExprRef a, ExprRef b) {
  assert(a->width() == b->width());
  uint32_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    return MakeConst(kind == ExprKind::kEq || kind == ExprKind::kUlt ||
                             kind == ExprKind::kUle || kind == ExprKind::kSlt ||
                             kind == ExprKind::kSle
                         ? 1
                         : w,
                     FoldBinary(kind, w, a->aux(), b->aux()));
  }
  // Canonicalize: constants on the right for commutative operators.
  if (IsCommutative(kind) && a->IsConst()) {
    std::swap(a, b);
  }
  if (b->IsConst()) {
    uint64_t c = b->aux();
    uint64_t mask = WidthMask(w);
    switch (kind) {
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kXor:
      case ExprKind::kOr:
      case ExprKind::kShl:
      case ExprKind::kLShr:
      case ExprKind::kAShr:
        if (c == 0) {
          return a;
        }
        break;
      case ExprKind::kMul:
        if (c == 0) {
          return b;
        }
        if (c == 1) {
          return a;
        }
        break;
      case ExprKind::kAnd:
        if (c == 0) {
          return b;
        }
        if (c == mask) {
          return a;
        }
        break;
      case ExprKind::kUDiv:
        if (c == 1) {
          return a;
        }
        break;
      default:
        break;
    }
  }
  if (Expr::Equal(a, b)) {
    switch (kind) {
      case ExprKind::kSub:
      case ExprKind::kXor:
        return MakeConst(w, 0);
      case ExprKind::kAnd:
      case ExprKind::kOr:
        return a;
      case ExprKind::kEq:
      case ExprKind::kUle:
      case ExprKind::kSle:
        return MakeTrue();
      case ExprKind::kUlt:
      case ExprKind::kSlt:
        return MakeFalse();
      default:
        break;
    }
  }
  uint32_t result_width = w;
  switch (kind) {
    case ExprKind::kEq:
    case ExprKind::kUlt:
    case ExprKind::kUle:
    case ExprKind::kSlt:
    case ExprKind::kSle:
      result_width = 1;
      break;
    default:
      break;
  }
  return MakeNode(kind, result_width, 0, {std::move(a), std::move(b)});
}

}  // namespace

Expr::Expr(ExprKind kind, uint32_t width, uint64_t aux,
           std::initializer_list<ExprRef> kids)
    : kind_(kind), num_kids_(static_cast<uint8_t>(kids.size())), width_(width),
      aux_(aux), hash_(NodeHash(kind, width, aux, kids)) {
  assert(width_ >= 1 && width_ <= 64);
  assert(kind_ != ExprKind::kVar && "kVar nodes come from MakeVar");
  assert(kids.size() <= kMaxKids);
  std::copy(kids.begin(), kids.end(), kids_);
  // Summary: the sorted union of the kids' ids, by insertion into the
  // inline array; one id too many (or an overflowed kid) overflows it.
  for (const ExprRef& k : kids) {
    if (k->vars_overflow()) {
      num_vars_ = kVarsOverflow;
      return;
    }
    for (uint64_t id : k->var_ids()) {
      uint64_t* end = vars_ + num_vars_;
      uint64_t* pos = std::lower_bound(vars_, end, id);
      if (pos != end && *pos == id) {
        continue;
      }
      if (num_vars_ == kInlineVars) {
        num_vars_ = kVarsOverflow;
        return;
      }
      std::copy_backward(pos, end, end + 1);
      *pos = id;
      ++num_vars_;
    }
  }
}

Expr::Expr(VarTag, uint32_t width, uint64_t id)
    : kind_(ExprKind::kVar), num_vars_(1), width_(width), aux_(id),
      hash_(NodeHash(ExprKind::kVar, width, id, {})) {
  assert(width_ >= 1 && width_ <= 64);
  vars_[0] = id;
}

const std::string& Expr::name() const {
  static const std::string kNoName;
  return kind_ == ExprKind::kVar ? static_cast<const VarExpr*>(this)->name : kNoName;
}

bool Expr::Equal(const ExprRef& a, const ExprRef& b) {
  if (a.get() == b.get()) {
    return true;
  }
  if (a->hash_ != b->hash_ || a->kind_ != b->kind_ || a->width_ != b->width_ ||
      a->aux_ != b->aux_ || a->num_kids_ != b->num_kids_) {
    return false;
  }
  for (size_t i = 0; i < a->num_kids_; ++i) {
    if (!Equal(a->kids_[i], b->kids_[i])) {
      return false;
    }
  }
  return true;
}

ExprRef MakeConst(uint32_t width, uint64_t value) {
  value &= WidthMask(width);
  // Constant nodes of the common widths and small values dominate Expr
  // construction (loop counters, flags, zero/one results), so they come
  // from a shared immutable table built once per process. Structural
  // hashing makes the cached node bit-identical to a fresh one; sharing
  // only raises refcounts. The build suppresses event counting so the
  // expr_allocs counter stays identical across repeated runs in one
  // process (the table exists before the first run ends either way).
  static constexpr uint32_t kCachedWidths[] = {1, 8, 16, 32, 64};
  static constexpr uint64_t kCachedValues = 256;
  int row = -1;
  switch (width) {
    case 1: row = 0; break;
    case 8: row = 1; break;
    case 16: row = 2; break;
    case 32: row = 3; break;
    case 64: row = 4; break;
    default: break;
  }
  if (row >= 0 && value < kCachedValues) {
    static const auto& cache = *[] {
      ScopedEventCounters mute(nullptr);
      auto* table = new std::array<std::array<ExprRef, kCachedValues>, 5>();
      for (int r = 0; r < 5; ++r) {
        for (uint64_t v = 0; v < kCachedValues; ++v) {
          if (v <= WidthMask(kCachedWidths[r])) {
            (*table)[r][v] = std::make_shared<Expr>(
                ExprKind::kConst, kCachedWidths[r], v, std::initializer_list<ExprRef>{});
          }
        }
      }
      return table;
    }();
    const ExprRef& cached = cache[row][value];
    if (cached != nullptr) {
      return cached;
    }
  }
  return MakeNode(ExprKind::kConst, width, value, {});
}

ExprRef MakeTrue() { return MakeConst(1, 1); }
ExprRef MakeFalse() { return MakeConst(1, 0); }
ExprRef MakeBool(bool v) { return MakeConst(1, v ? 1 : 0); }

ExprRef MakeVar(uint64_t id, uint32_t width, std::string name) {
  CountEvent(&EventCounters::expr_allocs);
  return std::allocate_shared<VarExpr>(core::ArenaAllocator<VarExpr>(), width, id,
                                       std::move(name));
}

ExprRef MakeAdd(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kAdd, a, b); }
ExprRef MakeSub(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kSub, a, b); }
ExprRef MakeMul(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kMul, a, b); }
ExprRef MakeUDiv(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kUDiv, a, b); }
ExprRef MakeSDiv(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kSDiv, a, b); }
ExprRef MakeURem(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kURem, a, b); }
ExprRef MakeSRem(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kSRem, a, b); }
ExprRef MakeAnd(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kAnd, a, b); }
ExprRef MakeOr(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kOr, a, b); }
ExprRef MakeXor(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kXor, a, b); }
ExprRef MakeShl(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kShl, a, b); }
ExprRef MakeLShr(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kLShr, a, b); }
ExprRef MakeAShr(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kAShr, a, b); }

ExprRef MakeNot(ExprRef a) {
  if (a->IsConst()) {
    return MakeConst(a->width(), ~a->aux());
  }
  if (a->kind() == ExprKind::kNot) {
    return a->kids()[0];
  }
  uint32_t w = a->width();  // Read before moving: argument order is unspecified.
  return MakeNode(ExprKind::kNot, w, 0, {std::move(a)});
}

ExprRef MakeEq(ExprRef a, ExprRef b) {
  // Boolean-specialize: (x == true) -> x, (x == false) -> !x.
  if (a->width() == 1) {
    if (a->IsConst()) {
      std::swap(a, b);
    }
    if (b->IsConst()) {
      return b->aux() ? a : MakeLogicalNot(a);
    }
  }
  return MakeBinary(ExprKind::kEq, a, b);
}

ExprRef MakeNe(ExprRef a, ExprRef b) { return MakeLogicalNot(MakeEq(a, b)); }
ExprRef MakeUlt(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kUlt, a, b); }
ExprRef MakeUle(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kUle, a, b); }
ExprRef MakeSlt(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kSlt, a, b); }
ExprRef MakeSle(ExprRef a, ExprRef b) { return MakeBinary(ExprKind::kSle, a, b); }

ExprRef MakeLogicalAnd(ExprRef a, ExprRef b) {
  assert(a->width() == 1 && b->width() == 1);
  if (a->IsFalse() || b->IsFalse()) {
    return MakeFalse();
  }
  if (a->IsTrue()) {
    return b;
  }
  if (b->IsTrue()) {
    return a;
  }
  return MakeAnd(std::move(a), std::move(b));
}

ExprRef MakeLogicalOr(ExprRef a, ExprRef b) {
  assert(a->width() == 1 && b->width() == 1);
  if (a->IsTrue() || b->IsTrue()) {
    return MakeTrue();
  }
  if (a->IsFalse()) {
    return b;
  }
  if (b->IsFalse()) {
    return a;
  }
  return MakeOr(std::move(a), std::move(b));
}

ExprRef MakeLogicalNot(ExprRef a) {
  assert(a->width() == 1);
  return MakeNot(std::move(a));
}

ExprRef MakeConcat(ExprRef high, ExprRef low) {
  uint32_t w = high->width() + low->width();
  assert(w <= 64);
  if (high->IsConst() && low->IsConst()) {
    return MakeConst(w, (high->aux() << low->width()) | low->aux());
  }
  // concat(0, x) == zext(x).
  if (high->IsConstValue(0)) {
    return MakeZExt(low, w);
  }
  // Adjacent slices of one value rejoin: concat(extract(x, l+n, m),
  // extract(x, l, n)) == extract(x, l, n+m), which is x itself at full
  // width. A value stored byte by byte and loaded back is the value again.
  if (high->kind() == ExprKind::kExtract && low->kind() == ExprKind::kExtract &&
      high->aux() == low->aux() + low->width() &&
      Expr::Equal(high->kids()[0], low->kids()[0])) {
    return MakeExtract(low->kids()[0], static_cast<uint32_t>(low->aux()), w);
  }
  return MakeNode(ExprKind::kConcat, w, 0, {std::move(high), std::move(low)});
}

ExprRef MakeExtract(ExprRef a, uint32_t low_bit, uint32_t width) {
  assert(low_bit + width <= a->width());
  if (width == a->width()) {
    return a;
  }
  if (a->IsConst()) {
    return MakeConst(width, a->aux() >> low_bit);
  }
  // extract(extract(x)) composes.
  if (a->kind() == ExprKind::kExtract) {
    return MakeExtract(a->kids()[0], static_cast<uint32_t>(a->aux()) + low_bit, width);
  }
  // extract of a concat that falls entirely in one half.
  if (a->kind() == ExprKind::kConcat) {
    const ExprRef& high = a->kids()[0];
    const ExprRef& low = a->kids()[1];
    if (low_bit + width <= low->width()) {
      return MakeExtract(low, low_bit, width);
    }
    if (low_bit >= low->width()) {
      return MakeExtract(high, low_bit - low->width(), width);
    }
  }
  // extract of a zext that falls entirely in the original value or the zeros.
  if (a->kind() == ExprKind::kZExt) {
    const ExprRef& inner = a->kids()[0];
    if (low_bit + width <= inner->width()) {
      return MakeExtract(inner, low_bit, width);
    }
    if (low_bit >= inner->width()) {
      return MakeConst(width, 0);
    }
  }
  return MakeNode(ExprKind::kExtract, width, low_bit, {std::move(a)});
}

ExprRef MakeZExt(ExprRef a, uint32_t width) {
  assert(width >= a->width());
  if (width == a->width()) {
    return a;
  }
  if (a->IsConst()) {
    return MakeConst(width, a->aux());
  }
  if (a->kind() == ExprKind::kZExt) {
    return MakeZExt(a->kids()[0], width);
  }
  return MakeNode(ExprKind::kZExt, width, 0, {std::move(a)});
}

ExprRef MakeSExt(ExprRef a, uint32_t width) {
  assert(width >= a->width());
  if (width == a->width()) {
    return a;
  }
  if (a->IsConst()) {
    uint64_t v = a->aux();
    if ((v >> (a->width() - 1)) & 1) {
      v |= ~WidthMask(a->width());
    }
    return MakeConst(width, v);
  }
  return MakeNode(ExprKind::kSExt, width, 0, {std::move(a)});
}

ExprRef MakeIte(ExprRef cond, ExprRef then_e, ExprRef else_e) {
  assert(cond->width() == 1);
  assert(then_e->width() == else_e->width());
  if (cond->IsTrue()) {
    return then_e;
  }
  if (cond->IsFalse()) {
    return else_e;
  }
  if (Expr::Equal(then_e, else_e)) {
    return then_e;
  }
  // ite(c, 1, 0) on booleans is just c.
  if (then_e->width() == 1 && then_e->IsTrue() && else_e->IsFalse()) {
    return cond;
  }
  if (then_e->width() == 1 && then_e->IsFalse() && else_e->IsTrue()) {
    return MakeLogicalNot(cond);
  }
  uint32_t w = then_e->width();  // Read before moving.
  return MakeNode(ExprKind::kIte, w, 0,
                  {std::move(cond), std::move(then_e), std::move(else_e)});
}

uint64_t EvalExpr(const ExprRef& e, const std::map<uint64_t, uint64_t>& assignment) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return e->aux();
    case ExprKind::kVar: {
      auto it = assignment.find(e->aux());
      uint64_t v = it == assignment.end() ? 0 : it->second;
      return v & WidthMask(e->width());
    }
    case ExprKind::kNot:
      return ~EvalExpr(e->kids()[0], assignment) & WidthMask(e->width());
    case ExprKind::kConcat: {
      uint64_t hi = EvalExpr(e->kids()[0], assignment);
      uint64_t lo = EvalExpr(e->kids()[1], assignment);
      return ((hi << e->kids()[1]->width()) | lo) & WidthMask(e->width());
    }
    case ExprKind::kExtract:
      return (EvalExpr(e->kids()[0], assignment) >> e->aux()) & WidthMask(e->width());
    case ExprKind::kZExt:
      return EvalExpr(e->kids()[0], assignment);
    case ExprKind::kSExt: {
      uint64_t v = EvalExpr(e->kids()[0], assignment);
      uint32_t iw = e->kids()[0]->width();
      if ((v >> (iw - 1)) & 1) {
        v |= ~WidthMask(iw);
      }
      return v & WidthMask(e->width());
    }
    case ExprKind::kIte:
      return EvalExpr(e->kids()[0], assignment)
                 ? EvalExpr(e->kids()[1], assignment)
                 : EvalExpr(e->kids()[2], assignment);
    default: {
      uint64_t a = EvalExpr(e->kids()[0], assignment);
      uint64_t b = EvalExpr(e->kids()[1], assignment);
      uint32_t w = e->kids()[0]->width();
      return FoldBinary(e->kind(), w, a, b);
    }
  }
}

namespace {

// The overflowed nodes one walk has entered. Expressions are DAGs, and a
// path-count traversal is exponential on heavily shared ones, so a walk
// enters each overflowed node once. Nodes whose summary fits need no entry
// here: AppendVarIds reads their ids without entering them, and
// CollectVars skips them once their ids are collected. An open-addressing
// pointer table in a flat buffer that each thread keeps across walks. A
// walk starts with Clear(), which empties just the slots the previous walk
// filled (also one an exception ended; the entries are only compared,
// never dereferenced), so a walk allocates nothing once the buffer has
// grown to the largest DAG the thread has seen.
class EnteredNodes {
 public:
  // False when `n` was already entered.
  bool Insert(const Expr* n) {
    if ((filled_.size() + 1) * 2 > slots_.size()) {
      Grow();
    }
    size_t i = Probe(n);
    if (slots_[i] == n) {
      return false;
    }
    slots_[i] = n;
    filled_.push_back(i);
    return true;
  }

  void Clear() {
    for (size_t i : filled_) {
      slots_[i] = nullptr;
    }
    filled_.clear();
  }

 private:
  // The slot holding `n`, or the empty slot where it belongs.
  size_t Probe(const Expr* n) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(
                   (reinterpret_cast<uintptr_t>(n) >> 4) * 0x9e3779b97f4a7c15ull) &
               mask;
    while (slots_[i] != nullptr && slots_[i] != n) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<const Expr*> old_slots = std::move(slots_);
    std::vector<size_t> old_filled = std::move(filled_);
    slots_.assign(std::max<size_t>(old_slots.size() * 2, 64), nullptr);
    filled_.clear();
    for (size_t i : old_filled) {
      size_t j = Probe(old_slots[i]);
      slots_[j] = old_slots[i];
      filled_.push_back(j);
    }
  }

  std::vector<const Expr*> slots_;
  std::vector<size_t> filled_;
};

// Appends the ids under overflowed node `e`, unsorted and with repeats.
void AppendOverflowedIds(const Expr& e, EnteredNodes* entered,
                         std::vector<uint64_t>* ids) {
  for (const ExprRef& k : e.kids()) {
    if (!k->vars_overflow()) {
      ids->insert(ids->end(), k->var_ids().begin(), k->var_ids().end());
    } else if (entered->Insert(k.get())) {
      AppendOverflowedIds(*k, entered, ids);
    }
  }
}

// Preorder, kids left to right, as a plain DFS would go: the first node
// met for each id is the one kept. A subtree whose ids are all in `vars`
// already adds nothing, so it is skipped.
void CollectVarsWalk(const ExprRef& e, EnteredNodes* entered,
                     std::map<uint64_t, ExprRef>* vars) {
  if (e->kind() == ExprKind::kVar) {
    vars->emplace(e->aux(), e);
    return;
  }
  if (e->vars_overflow()) {
    if (!entered->Insert(e.get())) {
      return;
    }
  } else if (std::all_of(e->var_ids().begin(), e->var_ids().end(),
                         [vars](uint64_t id) { return vars->count(id) > 0; })) {
    return;
  }
  for (const ExprRef& k : e->kids()) {
    CollectVarsWalk(k, entered, vars);
  }
}

}  // namespace

void AppendVarIds(const ExprRef& e, std::vector<uint64_t>* ids) {
  if (!e->vars_overflow()) {
    ids->insert(ids->end(), e->var_ids().begin(), e->var_ids().end());
    return;
  }
  thread_local EnteredNodes entered;
  entered.Clear();
  const size_t start = ids->size();
  AppendOverflowedIds(*e, &entered, ids);
  std::sort(ids->begin() + static_cast<std::ptrdiff_t>(start), ids->end());
  ids->erase(std::unique(ids->begin() + static_cast<std::ptrdiff_t>(start), ids->end()),
             ids->end());
}

void CollectVars(const ExprRef& e, std::map<uint64_t, ExprRef>* vars) {
  thread_local EnteredNodes entered;
  entered.Clear();
  CollectVarsWalk(e, &entered, vars);
}

size_t ExprSize(const ExprRef& e) {
  std::set<const Expr*> seen;
  std::function<void(const ExprRef&)> walk = [&](const ExprRef& n) {
    if (!seen.insert(n.get()).second) {
      return;
    }
    for (const ExprRef& k : n->kids()) {
      walk(k);
    }
  };
  walk(e);
  return seen.size();
}

std::string ExprToString(const ExprRef& e) {
  static const char* kNames[] = {
      "const", "var",  "add",  "sub",  "mul",  "udiv",    "sdiv",    "urem",
      "srem",  "and",  "or",   "xor",  "shl",  "lshr",    "ashr",    "not",
      "eq",    "ult",  "ule",  "slt",  "sle",  "concat",  "extract", "zext",
      "sext",  "ite"};
  std::ostringstream os;
  switch (e->kind()) {
    case ExprKind::kConst:
      os << e->aux() << ":" << e->width();
      break;
    case ExprKind::kVar:
      os << (e->name().empty() ? "v" + std::to_string(e->aux()) : e->name()) << ":"
         << e->width();
      break;
    default:
      os << "(" << kNames[static_cast<int>(e->kind())];
      if (e->kind() == ExprKind::kExtract) {
        os << "@" << e->aux();
      }
      for (const ExprRef& k : e->kids()) {
        os << " " << ExprToString(k);
      }
      os << ")";
      break;
  }
  return os.str();
}

}  // namespace esd::solver
