// ESD IR: fluent construction API.
//
// Typical use:
//   ir::Module module;
//   ir::ModuleBuilder mb(&module);
//   mb.DeclareExternal("getchar", ir::Type::kI32, {});
//   ir::FunctionBuilder fb = mb.BeginFunction("main", ir::Type::kI32, {});
//   ir::Value c = fb.Call("getchar", {});
//   ...
//   fb.Ret(fb.ConstI32(0));
//   fb.Finish();
//
// Forward references are allowed: calling a function that has not been built
// yet creates a placeholder that a later BeginFunction() with the same name
// fills in.
#ifndef ESD_SRC_IR_BUILDER_H_
#define ESD_SRC_IR_BUILDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ir/module.h"

namespace esd::ir {

class ModuleBuilder;

// Builds one function. Blocks are created up front (or on demand) and
// instructions are appended to the "current" block. The builder assigns
// virtual registers; parameters occupy registers [0, params.size()).
class FunctionBuilder {
 public:
  // Creates (or returns) the index of the block with the given label. When
  // several blocks carry the label, returns the first. O(1).
  uint32_t Block(std::string_view label);
  // Renames the entry block (created as "entry" by BeginFunction). O(1).
  void RenameEntry(std::string_view label);
  // Makes `block` the insertion point.
  void SetBlock(uint32_t block);
  uint32_t CurrentBlock() const { return current_block_; }
  // Whether the current block already ends in a terminator: nothing may be
  // appended to it then.
  bool BlockTerminated() const;

  Value Param(uint32_t i) const;

  // Constants.
  static Value ConstI1(bool v) { return Value::Const(Type::kI1, v ? 1 : 0); }
  static Value ConstI8(uint8_t v) { return Value::Const(Type::kI8, v); }
  static Value ConstI32(uint32_t v) { return Value::Const(Type::kI32, v); }
  static Value ConstI64(uint64_t v) { return Value::Const(Type::kI64, v); }
  static Value NullPtr() { return Value::Const(Type::kPtr, 0); }

  // Arithmetic / bitwise.
  Value Binary(Opcode op, Value lhs, Value rhs);
  Value Add(Value a, Value b) { return Binary(Opcode::kAdd, a, b); }
  Value Sub(Value a, Value b) { return Binary(Opcode::kSub, a, b); }
  Value Mul(Value a, Value b) { return Binary(Opcode::kMul, a, b); }
  Value UDiv(Value a, Value b) { return Binary(Opcode::kUDiv, a, b); }
  Value SDiv(Value a, Value b) { return Binary(Opcode::kSDiv, a, b); }
  Value URem(Value a, Value b) { return Binary(Opcode::kURem, a, b); }
  Value SRem(Value a, Value b) { return Binary(Opcode::kSRem, a, b); }
  Value And(Value a, Value b) { return Binary(Opcode::kAnd, a, b); }
  Value Or(Value a, Value b) { return Binary(Opcode::kOr, a, b); }
  Value Xor(Value a, Value b) { return Binary(Opcode::kXor, a, b); }
  Value Shl(Value a, Value b) { return Binary(Opcode::kShl, a, b); }
  Value LShr(Value a, Value b) { return Binary(Opcode::kLShr, a, b); }
  Value AShr(Value a, Value b) { return Binary(Opcode::kAShr, a, b); }

  Value ICmp(CmpPred pred, Value lhs, Value rhs);
  Value Not(Value v);
  Value ZExt(Value v, Type to);
  Value SExt(Value v, Type to);
  Value Trunc(Value v, Type to);
  Value Select(Value cond, Value if_true, Value if_false);

  // Memory.
  Value Alloca(uint32_t bytes);
  Value Load(Type type, Value ptr);
  void Store(Value value, Value ptr);
  Value Gep(Value ptr, Value index, uint32_t scale);
  Value GepConst(Value ptr, uint64_t byte_offset);

  // Control flow.
  void Br(uint32_t target);
  void CondBr(Value cond, uint32_t if_true, uint32_t if_false);
  void Ret();
  void Ret(Value v);
  void Unreachable();

  // Calls. Direct calls resolve by name (forward references allowed).
  Value Call(std::string_view callee, std::vector<Value> args);
  Value CallIndirect(Type ret_type, Value fn_ptr, std::vector<Value> args);

  Value FuncAddr(std::string_view name);
  Value GlobalAddr(std::string_view name);

  // Seals the function into the module. Must be called exactly once.
  void Finish();

 private:
  friend class ModuleBuilder;

  FunctionBuilder(ModuleBuilder* parent, uint32_t func_index, Function fn);

  Value NewReg(Type type);
  Instruction& Append(Instruction inst);

  struct LabelHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  ModuleBuilder* parent_;
  uint32_t func_index_;
  Function fn_;
  uint32_t current_block_ = 0;
  bool finished_ = false;
  // Label -> first block with that label. It lives in the builder, not in
  // Function, which every synthesis copies. The keys own their strings:
  // views into fn_.blocks[i].label would dangle when the vector grows.
  std::unordered_map<std::string, uint32_t, LabelHash, std::equal_to<>> block_index_;
  // Only RenameEntry can give two blocks one label: this is the block (> 0)
  // whose label the entry block's label hides, or 0 for none.
  uint32_t entry_hides_ = 0;
};

class ModuleBuilder {
 public:
  explicit ModuleBuilder(Module* module) : module_(module) {}

  // Declares an external function handled by the VM externals registry.
  void DeclareExternal(std::string_view name, Type ret_type, std::vector<Type> params);

  // Adds a global of `size` bytes, optionally initialized with `init`.
  uint32_t AddGlobal(std::string_view name, uint32_t size, std::vector<uint8_t> init = {});
  // Adds a NUL-terminated string global; returns the global index.
  uint32_t AddStringGlobal(std::string_view name, std::string_view text);

  FunctionBuilder BeginFunction(std::string_view name, Type ret_type,
                                std::vector<Type> params);

  // Returns the index of `name`, creating an empty placeholder if needed.
  uint32_t EnsureFunction(std::string_view name);

  // Forward-declares a defined-later function with its signature, so calls
  // built before the body exists get the right return type.
  uint32_t DeclareFunction(std::string_view name, Type ret_type,
                           std::vector<Type> params);

  Module* module() { return module_; }

 private:
  friend class FunctionBuilder;
  Module* module_;
};

}  // namespace esd::ir

#endif  // ESD_SRC_IR_BUILDER_H_
