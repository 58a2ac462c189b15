#include "src/ir/printer.h"

#include <charconv>
#include <concepts>
#include <cstdio>
#include <string_view>

namespace esd::ir {
namespace {

// A sink that hashes what is written to it with FNV-1a instead of keeping
// it. The printer's other sink is std::string, which appends.
class Fnv1aSink {
 public:
  void append(std::string_view s) {
    for (unsigned char c : s) {
      hash_ = (hash_ ^ c) * 0x100000001b3ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// The one printer: writes the canonical text of a module, or of one of its
// functions or instructions, to `Sink`.
template <typename Sink>
class Printer {
 public:
  Printer(const Module& module, Sink* sink) : module_(module), sink_(sink) {}

  Printer& operator<<(std::string_view s) {
    sink_->append(s);
    return *this;
  }
  template <std::integral Int>
  Printer& operator<<(Int v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    sink_->append(std::string_view(buf, static_cast<size_t>(end - buf)));
    return *this;
  }

  void PrintModule() {
    for (uint32_t g = 0; g < module_.NumGlobals(); ++g) {
      PrintGlobal(module_.GlobalAt(g));
    }
    for (uint32_t f = 0; f < module_.NumFunctions(); ++f) {
      PrintFunction(module_.Func(f));
    }
  }

  void PrintFunction(const Function& fn) {
    if (fn.is_external) {
      *this << "extern @" << fn.name << "(";
      for (size_t i = 0; i < fn.params.size(); ++i) {
        if (i) {
          *this << ", ";
        }
        *this << TypeName(fn.params[i]);
      }
      *this << ") : " << TypeName(fn.ret_type) << "\n";
      return;
    }
    *this << "func @" << fn.name << "(";
    for (size_t i = 0; i < fn.params.size(); ++i) {
      if (i) {
        *this << ", ";
      }
      *this << "%r" << i << ": " << TypeName(fn.params[i]);
    }
    *this << ") : " << TypeName(fn.ret_type) << " {\n";
    for (const BasicBlock& bb : fn.blocks) {
      *this << bb.label << ":\n";
      for (const Instruction& inst : bb.insts) {
        *this << "  ";
        PrintInstruction(fn, inst);
        *this << "\n";
      }
    }
    *this << "}\n";
  }

  void PrintInstruction(const Function& fn, const Instruction& inst) {
    if (inst.result >= 0) {
      *this << "%r" << inst.result << " = ";
    }
    switch (inst.op) {
      case Opcode::kICmp:
        *this << "icmp " << CmpPredName(inst.pred) << " ";
        PrintOperandList(inst, 0);
        break;
      case Opcode::kZExt:
      case Opcode::kSExt:
      case Opcode::kTrunc:
        *this << OpcodeName(inst.op) << " " << TypeName(inst.type) << ", ";
        PrintOperandList(inst, 0);
        break;
      case Opcode::kAlloca:
        *this << "alloca " << inst.imm;
        break;
      case Opcode::kLoad:
        *this << "load " << TypeName(inst.type) << ", ";
        PrintOperandList(inst, 0);
        break;
      case Opcode::kGep:
        *this << "gep ";
        PrintOperandList(inst, 0);
        *this << ", " << inst.imm;
        break;
      case Opcode::kBr:
        *this << "br " << fn.blocks[inst.succ_true].label;
        break;
      case Opcode::kCondBr:
        *this << "condbr ";
        PrintOperandList(inst, 0);
        *this << ", " << fn.blocks[inst.succ_true].label << ", "
              << fn.blocks[inst.succ_false].label;
        break;
      case Opcode::kCall:
        if (inst.callee != kInvalidIndex) {
          *this << "call @" << module_.Func(inst.callee).name << "(";
          PrintOperandList(inst, 0);
          *this << ")";
        } else {
          *this << "calli " << TypeName(inst.type) << " ";
          PrintValue(inst.operands[0]);
          *this << "(";
          PrintOperandList(inst, 1);
          *this << ")";
        }
        break;
      default:
        *this << OpcodeName(inst.op);
        if (!inst.operands.empty()) {
          *this << " ";
          PrintOperandList(inst, 0);
        }
        break;
    }
  }

 private:
  void PrintGlobal(const Global& gl) {
    bool printable = !gl.init.empty();
    for (size_t i = 0; printable && i + 1 < gl.init.size(); ++i) {
      if (gl.init[i] < 0x20 || gl.init[i] > 0x7e || gl.init[i] == '"' ||
          gl.init[i] == '\\') {
        printable = false;
      }
    }
    if (printable && !gl.init.empty() && gl.init.back() == 0 &&
        gl.init.size() == gl.size) {
      *this << "global $" << gl.name << " = str \""
            << std::string_view(reinterpret_cast<const char*>(gl.init.data()),
                                gl.init.size() - 1)
            << "\"\n";
    } else if (gl.init.empty()) {
      *this << "global $" << gl.name << " = zero " << gl.size << "\n";
    } else {
      *this << "global $" << gl.name << " = bytes " << gl.size << " [";
      for (size_t i = 0; i < gl.init.size(); ++i) {
        if (i) {
          *this << " ";
        }
        *this << static_cast<unsigned>(gl.init[i]);
      }
      *this << "]\n";
    }
  }

  void PrintValue(const Value& v) {
    switch (v.kind) {
      case Value::Kind::kNone:
        *this << "<none>";
        break;
      case Value::Kind::kReg:
        *this << "%r" << v.index;
        break;
      case Value::Kind::kConst:
        if (v.type == Type::kPtr && v.imm == 0) {
          *this << "null";
        } else {
          *this << TypeName(v.type) << " " << v.imm;
        }
        break;
      case Value::Kind::kFuncRef:
        *this << "@" << module_.Func(v.index).name;
        break;
      case Value::Kind::kGlobalRef:
        *this << "$" << module_.GlobalAt(v.index).name;
        break;
    }
  }

  void PrintOperandList(const Instruction& inst, size_t first) {
    for (size_t i = first; i < inst.operands.size(); ++i) {
      if (i != first) {
        *this << ", ";
      }
      PrintValue(inst.operands[i]);
    }
  }

  const Module& module_;
  Sink* sink_;
};

}  // namespace

std::string PrintInstruction(const Module& module, const Function& fn,
                             const Instruction& inst) {
  std::string out;
  Printer(module, &out).PrintInstruction(fn, inst);
  return out;
}

std::string PrintFunction(const Module& module, uint32_t func_index) {
  std::string out;
  Printer(module, &out).PrintFunction(module.Func(func_index));
  return out;
}

std::string PrintModule(const Module& module) {
  std::string out;
  Printer(module, &out).PrintModule();
  return out;
}

uint64_t ModuleDigest(const Module& module) {
  Fnv1aSink sink;
  Printer(module, &sink).PrintModule();
  return sink.hash();
}

std::string ModuleDigestHex(const Module& module) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(ModuleDigest(module)));
  return buf;
}

}  // namespace esd::ir
