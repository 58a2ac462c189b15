#include <algorithm>
#include <vector>

#include "src/ir/passes/passes.h"

namespace esd::ir::passes {
namespace {

// Pure register arithmetic that can be neutralized in place: no traps
// (div/rem can fault on zero), no memory, no control, no calls.
bool IsNeutralizable(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kLShr:
    case Opcode::kAShr:
    case Opcode::kICmp:
    case Opcode::kNot:
    case Opcode::kZExt:
    case Opcode::kSExt:
    case Opcode::kTrunc:
    case Opcode::kSelect:
    case Opcode::kGep:
      return true;
    default:
      return false;
  }
}

// Finds dead register arithmetic: the result is used nowhere, so the
// instruction's operands can be re-pointed at zeros of their types. The
// slot still executes (trace equality) but no longer keeps its inputs live
// — symbolic values feeding only dead arithmetic stop reaching the solver.
// Instructions whose operands are all zeros already are not rewrites.
void FindDead(const Function& fn, uint32_t f, const ProtectedSites& prot,
              Rewrites* rewrites) {
  std::vector<bool> used(fn.num_regs, false);
  for (const BasicBlock& bb : fn.blocks) {
    for (const Instruction& inst : bb.insts) {
      for (const Value& v : inst.operands) {
        if (v.kind == Value::Kind::kReg) {
          if (v.index >= used.size()) {
            used.resize(v.index + 1, false);
          }
          used[v.index] = true;
        }
      }
    }
  }
  auto is_zero = [](const Value& v) {
    return v.kind == Value::Kind::kConst && v.imm == 0;
  };
  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    for (uint32_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
      const Instruction& inst = fn.blocks[b].insts[i];
      if (inst.result < 0 || !IsNeutralizable(inst.op) ||
          (static_cast<size_t>(inst.result) < used.size() &&
           used[static_cast<size_t>(inst.result)]) ||
          prot.IsProtectedSite(f, b, i) ||
          std::all_of(inst.operands.begin(), inst.operands.end(), is_zero)) {
        continue;
      }
      Instruction zeroed = inst;
      for (Value& v : zeroed.operands) {
        if (!is_zero(v)) {
          v = Value::Const(v.type, 0);
        }
      }
      rewrites->emplace_back(InstRef{f, b, i}, std::move(zeroed));
    }
  }
}

}  // namespace

Rewrites FindDeadArithmetic(const Module& m, const ProtectedSites& prot) {
  Rewrites rewrites;
  for (uint32_t f = 0; f < m.NumFunctions(); ++f) {
    const Function& fn = m.Func(f);
    if (!fn.is_external) {
      FindDead(fn, f, prot, &rewrites);
    }
  }
  return rewrites;
}

}  // namespace esd::ir::passes
