#include <set>

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

// Neutralizes dead register arithmetic: the result is used nowhere, so the
// instruction's operands are re-pointed at zeros of their types. The slot
// still executes (trace equality) but no longer keeps its inputs live —
// symbolic values feeding only dead arithmetic stop reaching the solver.
uint64_t NeutralizeDead(Function& fn, uint32_t f, const ProtectedSites& prot) {
  std::set<uint32_t> used;
  for (const BasicBlock& bb : fn.blocks) {
    for (const Instruction& inst : bb.insts) {
      for (const Value& v : inst.operands) {
        if (v.kind == Value::Kind::kReg) {
          used.insert(v.index);
        }
      }
    }
  }
  uint64_t neutralized = 0;
  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    for (uint32_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
      Instruction& inst = fn.blocks[b].insts[i];
      if (inst.result < 0 || !IsNeutralizable(inst.op) ||
          used.count(static_cast<uint32_t>(inst.result)) > 0 ||
          prot.IsProtectedSite(f, b, i)) {
        continue;
      }
      bool changed = false;
      for (Value& v : inst.operands) {
        if (v.kind != Value::Kind::kConst || v.imm != 0) {
          v = Value::Const(v.type, 0);
          changed = true;
        }
      }
      if (changed) {
        ++neutralized;
      }
    }
  }
  return neutralized;
}

}  // namespace

uint64_t DcePass(Module* m, const ProtectedSites& prot, PassStats* stats) {
  uint64_t neutralized = 0;
  for (uint32_t f = 0; f < m->NumFunctions(); ++f) {
    Function& fn = m->Func(f);
    if (!fn.is_external) {
      neutralized += NeutralizeDead(fn, f, prot);
    }
  }
  stats->neutralized_insts += neutralized;
  return neutralized;
}

}  // namespace esd::ir::passes
