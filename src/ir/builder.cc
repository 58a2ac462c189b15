#include "src/ir/builder.h"

#include <cassert>
#include <utility>

namespace esd::ir {

FunctionBuilder::FunctionBuilder(ModuleBuilder* parent, uint32_t func_index, Function fn)
    : parent_(parent), func_index_(func_index), fn_(std::move(fn)) {
  Block("entry");
}

void FunctionBuilder::RenameEntry(std::string_view label) {
  std::string& entry = fn_.blocks[0].label;
  // The old label goes back to the block it hid, if any.
  block_index_.erase(entry);
  if (entry_hides_ != 0) {
    block_index_.emplace(entry, entry_hides_);
  }
  // The entry block comes first, so it wins the new label.
  if (auto it = block_index_.find(label); it != block_index_.end()) {
    entry_hides_ = it->second;
    it->second = 0;
  } else {
    entry_hides_ = 0;
    block_index_.emplace(label, 0);
  }
  entry = std::string(label);
}

uint32_t FunctionBuilder::Block(std::string_view label) {
  if (auto it = block_index_.find(label); it != block_index_.end()) {
    return it->second;
  }
  const auto index = static_cast<uint32_t>(fn_.blocks.size());
  fn_.blocks.push_back(BasicBlock{std::string(label), {}});
  block_index_.emplace(label, index);
  return index;
}

void FunctionBuilder::SetBlock(uint32_t block) {
  assert(block < fn_.blocks.size());
  current_block_ = block;
}

bool FunctionBuilder::BlockTerminated() const {
  const BasicBlock& bb = fn_.blocks[current_block_];
  return !bb.insts.empty() && bb.insts.back().IsTerminator();
}

Value FunctionBuilder::Param(uint32_t i) const {
  assert(i < fn_.params.size());
  return Value::Reg(i, fn_.params[i]);
}

Value FunctionBuilder::NewReg(Type type) {
  return Value::Reg(fn_.num_regs++, type);
}

Instruction& FunctionBuilder::Append(Instruction inst) {
  assert(!finished_);
  assert(!BlockTerminated() && "appending after a terminator");
  BasicBlock& bb = fn_.blocks[current_block_];
  bb.insts.push_back(std::move(inst));
  return bb.insts.back();
}

Value FunctionBuilder::Binary(Opcode op, Value lhs, Value rhs) {
  assert(lhs.type == rhs.type);
  Value dst = NewReg(lhs.type);
  Instruction inst;
  inst.op = op;
  inst.type = lhs.type;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {lhs, rhs};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::ICmp(CmpPred pred, Value lhs, Value rhs) {
  assert(lhs.type == rhs.type);
  Value dst = NewReg(Type::kI1);
  Instruction inst;
  inst.op = Opcode::kICmp;
  inst.type = Type::kI1;
  inst.pred = pred;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {lhs, rhs};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::Not(Value v) {
  Value dst = NewReg(v.type);
  Instruction inst;
  inst.op = Opcode::kNot;
  inst.type = v.type;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {v};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::ZExt(Value v, Type to) {
  assert(BitWidth(to) >= BitWidth(v.type));
  Value dst = NewReg(to);
  Instruction inst;
  inst.op = Opcode::kZExt;
  inst.type = to;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {v};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::SExt(Value v, Type to) {
  assert(BitWidth(to) >= BitWidth(v.type));
  Value dst = NewReg(to);
  Instruction inst;
  inst.op = Opcode::kSExt;
  inst.type = to;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {v};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::Trunc(Value v, Type to) {
  assert(BitWidth(to) <= BitWidth(v.type));
  Value dst = NewReg(to);
  Instruction inst;
  inst.op = Opcode::kTrunc;
  inst.type = to;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {v};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::Select(Value cond, Value if_true, Value if_false) {
  assert(cond.type == Type::kI1);
  assert(if_true.type == if_false.type);
  Value dst = NewReg(if_true.type);
  Instruction inst;
  inst.op = Opcode::kSelect;
  inst.type = if_true.type;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {cond, if_true, if_false};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::Alloca(uint32_t bytes) {
  Value dst = NewReg(Type::kPtr);
  Instruction inst;
  inst.op = Opcode::kAlloca;
  inst.type = Type::kPtr;
  inst.imm = bytes;
  inst.result = static_cast<int32_t>(dst.index);
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::Load(Type type, Value ptr) {
  assert(ptr.type == Type::kPtr);
  Value dst = NewReg(type);
  Instruction inst;
  inst.op = Opcode::kLoad;
  inst.type = type;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {ptr};
  Append(std::move(inst));
  return dst;
}

void FunctionBuilder::Store(Value value, Value ptr) {
  assert(ptr.type == Type::kPtr);
  Instruction inst;
  inst.op = Opcode::kStore;
  inst.operands = {value, ptr};
  Append(std::move(inst));
}

Value FunctionBuilder::Gep(Value ptr, Value index, uint32_t scale) {
  assert(ptr.type == Type::kPtr);
  Value dst = NewReg(Type::kPtr);
  Instruction inst;
  inst.op = Opcode::kGep;
  inst.type = Type::kPtr;
  inst.imm = scale;
  inst.result = static_cast<int32_t>(dst.index);
  inst.operands = {ptr, index};
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::GepConst(Value ptr, uint64_t byte_offset) {
  return Gep(ptr, ConstI64(byte_offset), 1);
}

void FunctionBuilder::Br(uint32_t target) {
  Instruction inst;
  inst.op = Opcode::kBr;
  inst.succ_true = target;
  Append(std::move(inst));
}

void FunctionBuilder::CondBr(Value cond, uint32_t if_true, uint32_t if_false) {
  assert(cond.type == Type::kI1);
  Instruction inst;
  inst.op = Opcode::kCondBr;
  inst.succ_true = if_true;
  inst.succ_false = if_false;
  inst.operands = {cond};
  Append(std::move(inst));
}

void FunctionBuilder::Ret() {
  Instruction inst;
  inst.op = Opcode::kRet;
  Append(std::move(inst));
}

void FunctionBuilder::Ret(Value v) {
  Instruction inst;
  inst.op = Opcode::kRet;
  inst.operands = {v};
  Append(std::move(inst));
}

void FunctionBuilder::Unreachable() {
  Instruction inst;
  inst.op = Opcode::kUnreachable;
  Append(std::move(inst));
}

Value FunctionBuilder::Call(std::string_view callee, std::vector<Value> args) {
  uint32_t callee_index = parent_->EnsureFunction(callee);
  Type ret_type = parent_->module()->Func(callee_index).ret_type;
  Instruction inst;
  inst.op = Opcode::kCall;
  inst.callee = callee_index;
  inst.type = ret_type;
  inst.operands = std::move(args);
  Value dst{};
  if (ret_type != Type::kVoid) {
    dst = NewReg(ret_type);
    inst.result = static_cast<int32_t>(dst.index);
  }
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::CallIndirect(Type ret_type, Value fn_ptr, std::vector<Value> args) {
  assert(fn_ptr.type == Type::kPtr);
  Instruction inst;
  inst.op = Opcode::kCall;
  inst.type = ret_type;
  inst.operands.push_back(fn_ptr);
  for (Value& a : args) {
    inst.operands.push_back(a);
  }
  Value dst{};
  if (ret_type != Type::kVoid) {
    dst = NewReg(ret_type);
    inst.result = static_cast<int32_t>(dst.index);
  }
  Append(std::move(inst));
  return dst;
}

Value FunctionBuilder::FuncAddr(std::string_view name) {
  return Value::FuncRef(parent_->EnsureFunction(name));
}

Value FunctionBuilder::GlobalAddr(std::string_view name) {
  auto index = parent_->module()->FindGlobal(name);
  assert(index.has_value() && "global must be declared before use");
  return Value::GlobalRef(*index);
}

void FunctionBuilder::Finish() {
  assert(!finished_);
  finished_ = true;
  parent_->module()->Func(func_index_) = std::move(fn_);
}

void ModuleBuilder::DeclareExternal(std::string_view name, Type ret_type,
                                    std::vector<Type> params) {
  if (module_->FindFunction(name).has_value()) {
    return;
  }
  Function f;
  f.name = std::string(name);
  f.ret_type = ret_type;
  f.params = std::move(params);
  f.is_external = true;
  module_->AddFunction(std::move(f));
}

uint32_t ModuleBuilder::AddGlobal(std::string_view name, uint32_t size,
                                  std::vector<uint8_t> init) {
  Global g;
  g.name = std::string(name);
  g.size = size;
  g.init = std::move(init);
  return module_->AddGlobal(std::move(g));
}

uint32_t ModuleBuilder::AddStringGlobal(std::string_view name, std::string_view text) {
  std::vector<uint8_t> bytes(text.begin(), text.end());
  bytes.push_back(0);
  uint32_t size = static_cast<uint32_t>(bytes.size());  // Read before moving.
  return AddGlobal(name, size, std::move(bytes));
}

uint32_t ModuleBuilder::DeclareFunction(std::string_view name, Type ret_type,
                                        std::vector<Type> params) {
  uint32_t index = EnsureFunction(name);
  Function& fn = module_->Func(index);
  fn.ret_type = ret_type;
  fn.params = std::move(params);
  return index;
}

uint32_t ModuleBuilder::EnsureFunction(std::string_view name) {
  if (auto existing = module_->FindFunction(name)) {
    return *existing;
  }
  Function placeholder;
  placeholder.name = std::string(name);
  return module_->AddFunction(std::move(placeholder));
}

FunctionBuilder ModuleBuilder::BeginFunction(std::string_view name, Type ret_type,
                                             std::vector<Type> params) {
  uint32_t index = EnsureFunction(name);
  Function fn;
  fn.name = std::string(name);
  fn.ret_type = ret_type;
  fn.params = std::move(params);
  fn.num_regs = static_cast<uint32_t>(fn.params.size());
  // Publish the signature on the module placeholder immediately so recursive
  // calls built before Finish() resolve the right return type.
  module_->Func(index).ret_type = ret_type;
  module_->Func(index).params = fn.params;
  return FunctionBuilder(this, index, std::move(fn));
}

}  // namespace esd::ir
