#include "ir/module.h"

#include <algorithm>

namespace lopass::ir {

std::vector<BlockId> BasicBlock::successors() const {
  const Instr& t = terminator();
  switch (t.op) {
    case Opcode::kRet:
      return {};
    case Opcode::kBr:
      return {t.target0};
    case Opcode::kCondBr:
      return {t.target0, t.target1};
    default:
      return {};
  }
}

SymbolId Module::AddScalar(const std::string& name, FunctionId owner) {
  Symbol s;
  s.id = static_cast<SymbolId>(symbols_.size());
  s.name = name;
  s.kind = SymbolKind::kScalar;
  s.length = 1;
  s.owner = owner;
  symbols_.push_back(s);
  addresses_assigned_ = false;
  return s.id;
}

SymbolId Module::AddArray(const std::string& name, std::uint32_t length, FunctionId owner) {
  LOPASS_CHECK(length > 0, "array length must be positive");
  Symbol s;
  s.id = static_cast<SymbolId>(symbols_.size());
  s.name = name;
  s.kind = SymbolKind::kArray;
  s.length = length;
  s.owner = owner;
  symbols_.push_back(s);
  addresses_assigned_ = false;
  return s.id;
}

SymbolId Module::AddFunctionSymbol(const std::string& name) {
  Symbol s;
  s.id = static_cast<SymbolId>(symbols_.size());
  s.name = name;
  s.kind = SymbolKind::kFunction;
  s.length = 0;
  symbols_.push_back(s);
  return s.id;
}

const Symbol& Module::symbol(SymbolId id) const {
  LOPASS_CHECK(id >= 0 && static_cast<std::size_t>(id) < symbols_.size(), "bad symbol id");
  return symbols_[static_cast<std::size_t>(id)];
}

Symbol& Module::symbol_mutable(SymbolId id) {
  LOPASS_CHECK(id >= 0 && static_cast<std::size_t>(id) < symbols_.size(), "bad symbol id");
  return symbols_[static_cast<std::size_t>(id)];
}

std::optional<SymbolId> Module::FindSymbol(const std::string& name, FunctionId owner) const {
  // Function-local symbols shadow globals.
  for (const Symbol& s : symbols_) {
    if (s.owner == owner && s.name == name && s.kind != SymbolKind::kFunction) return s.id;
  }
  if (owner != -1) {
    for (const Symbol& s : symbols_) {
      if (s.owner == -1 && s.name == name && s.kind != SymbolKind::kFunction) return s.id;
    }
  }
  return std::nullopt;
}

std::uint32_t Module::AssignAddresses() {
  std::uint32_t addr = 0;
  for (Symbol& s : symbols_) {
    if (s.kind == SymbolKind::kFunction) continue;
    s.address = addr;
    addr += s.length * 4;
  }
  data_size_ = addr;
  addresses_assigned_ = true;
  return addr;
}

FunctionId Module::AddFunction(const std::string& name) {
  Function f;
  f.id = static_cast<FunctionId>(functions_.size());
  f.name = name;
  f.symbol = AddFunctionSymbol(name);
  functions_.push_back(std::move(f));
  return static_cast<FunctionId>(functions_.size() - 1);
}

Function& Module::function(FunctionId id) {
  LOPASS_CHECK(id >= 0 && static_cast<std::size_t>(id) < functions_.size(), "bad function id");
  return functions_[static_cast<std::size_t>(id)];
}

const Function& Module::function(FunctionId id) const {
  LOPASS_CHECK(id >= 0 && static_cast<std::size_t>(id) < functions_.size(), "bad function id");
  return functions_[static_cast<std::size_t>(id)];
}

std::optional<FunctionId> Module::FindFunction(const std::string& name) const {
  for (const Function& f : functions_) {
    if (f.name == name) return f.id;
  }
  return std::nullopt;
}

FunctionId Module::EntryFunction(const std::string& name) const {
  const auto fid = FindFunction(name);
  if (!fid) throw Error("no function named '" + name + "'");
  return *fid;
}

std::optional<FunctionId> CalleeOf(const Module& m, const Instr& call) {
  if (call.sym < 0 || static_cast<std::size_t>(call.sym) >= m.num_symbols() ||
      m.symbol(call.sym).kind != SymbolKind::kFunction) {
    return std::nullopt;
  }
  return m.FindFunction(m.symbol(call.sym).name);
}

std::size_t Module::num_ops() const {
  std::size_t n = 0;
  for (const Function& f : functions_) {
    for (const BasicBlock& b : f.blocks) n += b.instrs.size();
  }
  return n;
}

FunctionBuilder::FunctionBuilder(Module& module, FunctionId fn)
    : module_(module), fn_(module.function(fn)) {}

BlockId FunctionBuilder::NewBlock() {
  BasicBlock b;
  b.id = static_cast<BlockId>(fn_.blocks.size());
  fn_.blocks.push_back(std::move(b));
  if (fn_.entry == kNoBlock) fn_.entry = static_cast<BlockId>(fn_.blocks.size() - 1);
  return static_cast<BlockId>(fn_.blocks.size() - 1);
}

VregId FunctionBuilder::NewVreg() { return fn_.next_vreg++; }

VregId FunctionBuilder::Emit(Opcode op, std::vector<Operand> args, SymbolId sym) {
  LOPASS_CHECK(cur_ != kNoBlock, "no current block");
  Instr in;
  in.op = op;
  in.args = std::move(args);
  in.sym = sym;
  in.line = line_;
  if (ProducesResult(op)) in.result = NewVreg();
  fn_.block(cur_).instrs.push_back(in);
  return in.result;
}

VregId FunctionBuilder::EmitReadVar(SymbolId var) {
  LOPASS_CHECK(module_.symbol(var).kind == SymbolKind::kScalar, "readvar needs scalar");
  return Emit(Opcode::kReadVar, {}, var);
}

void FunctionBuilder::EmitWriteVar(SymbolId var, Operand value) {
  LOPASS_CHECK(module_.symbol(var).kind == SymbolKind::kScalar, "writevar needs scalar");
  Emit(Opcode::kWriteVar, {value}, var);
}

VregId FunctionBuilder::EmitLoadElem(SymbolId array, Operand index) {
  LOPASS_CHECK(module_.symbol(array).kind == SymbolKind::kArray, "loadelem needs array");
  return Emit(Opcode::kLoadElem, {index}, array);
}

void FunctionBuilder::EmitStoreElem(SymbolId array, Operand index, Operand value) {
  LOPASS_CHECK(module_.symbol(array).kind == SymbolKind::kArray, "storeelem needs array");
  Emit(Opcode::kStoreElem, {index, value}, array);
}

VregId FunctionBuilder::EmitBinary(Opcode op, Operand a, Operand b) {
  LOPASS_CHECK(IsBinaryArith(op) || IsComparison(op), "not a binary op");
  return Emit(op, {a, b});
}

VregId FunctionBuilder::EmitUnary(Opcode op, Operand a) {
  LOPASS_CHECK(op == Opcode::kNeg || op == Opcode::kNot || op == Opcode::kMov,
               "not a unary op");
  return Emit(op, {a});
}

VregId FunctionBuilder::EmitCall(SymbolId fn, std::vector<Operand> args) {
  LOPASS_CHECK(module_.symbol(fn).kind == SymbolKind::kFunction, "call needs function");
  return Emit(Opcode::kCall, std::move(args), fn);
}

void FunctionBuilder::EmitRet() { Emit(Opcode::kRet, {}); }

void FunctionBuilder::EmitRet(Operand value) { Emit(Opcode::kRet, {value}); }

void FunctionBuilder::EmitBr(BlockId target) {
  LOPASS_CHECK(cur_ != kNoBlock, "no current block");
  Instr in;
  in.op = Opcode::kBr;
  in.target0 = target;
  in.line = line_;
  fn_.block(cur_).instrs.push_back(in);
}

void FunctionBuilder::EmitCondBr(Operand cond, BlockId if_true, BlockId if_false) {
  LOPASS_CHECK(cur_ != kNoBlock, "no current block");
  Instr in;
  in.op = Opcode::kCondBr;
  in.args = {cond};
  in.target0 = if_true;
  in.target1 = if_false;
  in.line = line_;
  fn_.block(cur_).instrs.push_back(in);
}

}  // namespace lopass::ir
