#include "src/analysis/range_analysis.h"

#include "src/analysis/dataflow.h"

namespace esd::analysis {
namespace {

using State = RangeAnalysis::State;  // via friend RangePolicy below

Interval OperandRange(const State& s, const ir::Value& v) {
  uint32_t width = ir::BitWidth(v.type);
  if (width == 0) {
    width = 64;
  }
  switch (v.kind) {
    case ir::Value::Kind::kConst:
      return PointInterval(v.imm, width);
    case ir::Value::Kind::kReg: {
      auto it = s.regs.find(v.index);
      return it == s.regs.end() ? FullInterval(width) : it->second;
    }
    default:
      return FullInterval(width);  // Pointers: opaque runtime values.
  }
}

// Inverts a tri-state i1 interval (for kNe and the negated predicates).
Interval InvertCmp(const Interval& r) {
  if (r == Interval{1, 1}) {
    return Interval{0, 0};
  }
  if (r == Interval{0, 0}) {
    return Interval{1, 1};
  }
  return Interval{0, 1};
}

Interval CmpRange(ir::CmpPred pred, const Interval& a, const Interval& b,
                  uint32_t width) {
  switch (pred) {
    case ir::CmpPred::kEq:
      return IntervalEq(a, b);
    case ir::CmpPred::kNe:
      return InvertCmp(IntervalEq(a, b));
    case ir::CmpPred::kUlt:
      return IntervalUlt(a, b);
    case ir::CmpPred::kUle:
      return IntervalUle(a, b);
    case ir::CmpPred::kUgt:
      return IntervalUlt(b, a);
    case ir::CmpPred::kUge:
      return IntervalUle(b, a);
    case ir::CmpPred::kSlt:
      return IntervalSlt(a, b, width);
    case ir::CmpPred::kSle:
      return IntervalSle(a, b, width);
    case ir::CmpPred::kSgt:
      return IntervalSlt(b, a, width);
    case ir::CmpPred::kSge:
      return IntervalSle(b, a, width);
  }
  return Interval{0, 1};
}

Interval ResultRange(const ir::Instruction& inst, const State& s) {
  uint32_t w = ir::BitWidth(inst.type);
  if (w == 0) {
    w = 64;
  }
  auto op0 = [&] { return OperandRange(s, inst.operands[0]); };
  auto op1 = [&] { return OperandRange(s, inst.operands[1]); };
  switch (inst.op) {
    case ir::Opcode::kAdd:
      return IntervalAdd(op0(), op1(), w);
    case ir::Opcode::kSub:
      return IntervalSub(op0(), op1(), w);
    case ir::Opcode::kMul:
      return IntervalMul(op0(), op1(), w);
    case ir::Opcode::kUDiv:
      return IntervalUDiv(op0(), op1(), w);
    case ir::Opcode::kURem:
      return IntervalURem(op0(), op1(), w);
    case ir::Opcode::kAnd:
      return IntervalAnd(op0(), op1(), w);
    case ir::Opcode::kOr:
      return IntervalOr(op0(), op1(), w);
    case ir::Opcode::kXor:
      return IntervalXor(op0(), op1(), w);
    case ir::Opcode::kShl:
      return IntervalShl(op0(), op1(), w);
    case ir::Opcode::kLShr:
      return IntervalLShr(op0(), op1(), w);
    case ir::Opcode::kAShr:
      return IntervalAShr(op0(), op1(), w);
    case ir::Opcode::kNot:
      return IntervalNot(op0(), w);
    case ir::Opcode::kICmp:
      return CmpRange(inst.pred, op0(), op1(),
                      ir::BitWidth(inst.operands[0].type));
    case ir::Opcode::kZExt:
      return IntervalZExt(op0(), ir::BitWidth(inst.operands[0].type), w);
    case ir::Opcode::kSExt:
      return IntervalSExt(op0(), ir::BitWidth(inst.operands[0].type), w);
    case ir::Opcode::kTrunc:
      return IntervalTrunc(op0(), w);
    case ir::Opcode::kSelect:
      return IntervalSelect(op0(), op1(), OperandRange(s, inst.operands[2]));
    default:
      // Loads, calls, allocas, geps: environment-dependent.
      return FullInterval(w);
  }
}

}  // namespace

// Forward policy. Join is a plain per-register range union: registers are
// single-assignment and the IR has no phis, so a register's interval is the
// same along every path on which its unique definition executed — loops
// cannot grow an interval round after round (loop-carried values go through
// memory, which is full-range immediately), and the fixpoint terminates
// without widening.
struct RangePolicy {
  using State = RangeAnalysis::State;
  const ir::Function* fn;

  State InitialState(uint32_t block) const {
    State s;
    s.reachable = block == 0;  // Entry: params unconstrained, all else bottom.
    return s;
  }

  bool Join(State* into, const State& from) const {
    if (!from.reachable) {
      return false;
    }
    if (!into->reachable) {
      *into = from;
      return true;
    }
    bool changed = false;
    for (auto it = into->regs.begin(); it != into->regs.end();) {
      auto fit = from.regs.find(it->first);
      if (fit == from.regs.end()) {
        it = into->regs.erase(it);  // Full on the other path.
        changed = true;
        continue;
      }
      Interval u = IntervalUnion(it->second, fit->second);
      if (!(u == it->second)) {
        it->second = u;
        changed = true;
      }
      ++it;
    }
    return changed;
  }

  void Transfer(const ir::Instruction& inst, uint32_t /*block*/,
                uint32_t /*i*/, State* s) const {
    if (!s->reachable || inst.result < 0) {
      return;
    }
    uint32_t w = ir::BitWidth(inst.type);
    if (w == 0) {
      w = 64;
    }
    Interval r = ResultRange(inst, *s);
    if (IsFullInterval(r, w)) {
      s->regs.erase(static_cast<uint32_t>(inst.result));
    } else {
      s->regs[static_cast<uint32_t>(inst.result)] = r;
    }
  }
};

RangeAnalysis::RangeAnalysis(const ir::Function& fn, const Cfg& cfg) : fn_(fn) {
  if (fn.blocks.empty()) {
    return;
  }
  RangePolicy policy{&fn};
  DataflowEngine<RangePolicy> engine(fn, cfg, Direction::kForward, &policy);
  engine.Run();
  entry_.reserve(fn.blocks.size());
  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    entry_.push_back(engine.EntryState(b));
  }
}

Interval RangeAnalysis::RegRange(uint32_t reg, uint32_t block,
                                 uint32_t inst) const {
  if (block >= entry_.size() || inst >= fn_.blocks[block].insts.size()) {
    return FullInterval(64);
  }
  // Seek to the instruction, as DataflowEngine::StateAt does.
  RangePolicy policy{&fn_};
  State s = entry_[block];
  const std::vector<ir::Instruction>& insts = fn_.blocks[block].insts;
  for (uint32_t i = 0; i < inst; ++i) {
    policy.Transfer(insts[i], block, i, &s);
  }
  auto it = s.regs.find(reg);
  return it == s.regs.end() ? FullInterval(64) : it->second;
}

Interval RangeAnalysis::RangeOf(const ir::Value& v, uint32_t block,
                                uint32_t inst) const {
  uint32_t width = ir::BitWidth(v.type);
  if (width == 0) {
    width = 64;
  }
  if (v.kind == ir::Value::Kind::kConst) {
    return PointInterval(v.imm, width);
  }
  if (v.kind != ir::Value::Kind::kReg) {
    return FullInterval(width);
  }
  Interval r = RegRange(v.index, block, inst);
  auto meet = IntervalIntersect(r, FullInterval(width));
  return meet.has_value() ? *meet : FullInterval(width);
}

}  // namespace esd::analysis
