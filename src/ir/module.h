#pragma once

// Core IR data structures: symbols, instructions, basic blocks,
// functions, module. See ir/opcode.h for the operation set and
// ir/region.h for the structural region tree the clusterer consumes.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "ir/opcode.h"

namespace lopass::ir {

using SymbolId = std::int32_t;
using BlockId = std::int32_t;
using FunctionId = std::int32_t;
using VregId = std::int32_t;

constexpr SymbolId kNoSymbol = -1;
constexpr BlockId kNoBlock = -1;
constexpr VregId kNoVreg = -1;

// Kind of a named program entity.
enum class SymbolKind : std::uint8_t { kScalar, kArray, kFunction };

// One entry of the module-level symbol table. Scalars and arrays are
// statically allocated (embedded style, no recursion), so every symbol
// has a fixed word address assigned by Module::AssignAddresses().
struct Symbol {
  SymbolId id = kNoSymbol;
  std::string name;
  SymbolKind kind = SymbolKind::kScalar;
  // Array length in 32-bit words (1 for scalars, 0 for functions).
  std::uint32_t length = 1;
  // Owning function, or -1 for globals / functions themselves.
  FunctionId owner = -1;
  // Byte address in the flat data address space (set by AssignAddresses).
  std::uint32_t address = 0;
  // Initial value for scalars (DSL `var g = <const>;`). Arrays start
  // zeroed; workloads populate them through the interpreter/ISS APIs.
  std::int64_t init = 0;
  // 1-based DSL source line of the declaration (0 = unknown, e.g.
  // programmatically built modules).
  int decl_line = 0;
};

// An operand is either a virtual register or an immediate constant.
struct Operand {
  enum class Kind : std::uint8_t { kVreg, kImm } kind = Kind::kVreg;
  VregId vreg = kNoVreg;
  std::int64_t imm = 0;

  static Operand Vreg(VregId v) { return Operand{Kind::kVreg, v, 0}; }
  static Operand Imm(std::int64_t value) { return Operand{Kind::kImm, kNoVreg, value}; }
  bool is_vreg() const { return kind == Kind::kVreg; }
  bool is_imm() const { return kind == Kind::kImm; }
};

// One operation node of the graph G = {V, E}.
struct Instr {
  Opcode op = Opcode::kMov;
  VregId result = kNoVreg;       // destination vreg, or kNoVreg
  std::vector<Operand> args;     // value operands
  SymbolId sym = kNoSymbol;      // variable/array/function symbol, if any
  BlockId target0 = kNoBlock;    // kBr/kCondBr: taken target
  BlockId target1 = kNoBlock;    // kCondBr: fall-through target
  // 1-based DSL source line the operation was lowered from (0 =
  // unknown). Diagnostics from IR-level analyses anchor on it.
  int line = 0;
};

// A maximal straight-line sequence of operations ending in a terminator.
struct BasicBlock {
  BlockId id = kNoBlock;
  std::vector<Instr> instrs;

  const Instr& terminator() const {
    LOPASS_CHECK(!instrs.empty() && IsTerminator(instrs.back().op),
                 "block has no terminator");
    return instrs.back();
  }
  // Successor block ids in the CFG.
  std::vector<BlockId> successors() const;
};

struct Function {
  FunctionId id = -1;
  std::string name;
  SymbolId symbol = kNoSymbol;        // entry in the module symbol table
  std::vector<SymbolId> params;       // scalar parameters
  std::vector<BasicBlock> blocks;
  BlockId entry = kNoBlock;
  VregId next_vreg = 0;

  BasicBlock& block(BlockId b) {
    LOPASS_CHECK(b >= 0 && static_cast<std::size_t>(b) < blocks.size(), "bad block id");
    return blocks[static_cast<std::size_t>(b)];
  }
  const BasicBlock& block(BlockId b) const {
    LOPASS_CHECK(b >= 0 && static_cast<std::size_t>(b) < blocks.size(), "bad block id");
    return blocks[static_cast<std::size_t>(b)];
  }
};

class Module {
 public:
  // --- symbol table -----------------------------------------------------
  SymbolId AddScalar(const std::string& name, FunctionId owner = -1);
  SymbolId AddArray(const std::string& name, std::uint32_t length, FunctionId owner = -1);
  SymbolId AddFunctionSymbol(const std::string& name);

  const Symbol& symbol(SymbolId id) const;
  Symbol& symbol_mutable(SymbolId id);
  std::optional<SymbolId> FindSymbol(const std::string& name, FunctionId owner) const;
  std::size_t num_symbols() const { return symbols_.size(); }
  const std::vector<Symbol>& symbols() const { return symbols_; }

  // Assigns every scalar/array a word-aligned static address. Called
  // once after construction; idempotent. Returns total data size in
  // bytes.
  std::uint32_t AssignAddresses();
  std::uint32_t data_size_bytes() const { return data_size_; }

  // --- functions ---------------------------------------------------------
  FunctionId AddFunction(const std::string& name);
  Function& function(FunctionId id);
  const Function& function(FunctionId id) const;
  std::optional<FunctionId> FindFunction(const std::string& name) const;
  // The function a run starts at. Throws a user Error when the module
  // has no function `name`: every entry lookup of the flow, the
  // simulators and lint resolves here.
  FunctionId EntryFunction(const std::string& name) const;
  std::size_t num_functions() const { return functions_.size(); }
  const std::vector<Function>& functions() const { return functions_; }
  std::vector<Function>& functions_mutable() { return functions_; }

  // Total number of operation nodes in the module (|V| of G).
  std::size_t num_ops() const;

 private:
  std::vector<Symbol> symbols_;
  std::vector<Function> functions_;
  std::uint32_t data_size_ = 0;
  bool addresses_assigned_ = false;
};

// The function a call instruction resolves to, or nothing when its
// symbol is not a function of the module (an L110 finding).
std::optional<FunctionId> CalleeOf(const Module& m, const Instr& call);

// Convenience builder for constructing functions programmatically (the
// DSL frontend uses it too). Keeps track of the current block.
class FunctionBuilder {
 public:
  FunctionBuilder(Module& module, FunctionId fn);

  BlockId NewBlock();
  void SetBlock(BlockId b) { cur_ = b; }
  BlockId current_block() const { return cur_; }

  // Source line stamped onto subsequently emitted instructions (0 =
  // unknown). The DSL lowerer keeps this in sync with the AST.
  void SetLine(int line) { line_ = line; }

  VregId NewVreg();

  // Generic append; returns the result vreg (or kNoVreg).
  VregId Emit(Opcode op, std::vector<Operand> args, SymbolId sym = kNoSymbol);

  VregId EmitReadVar(SymbolId var);
  void EmitWriteVar(SymbolId var, Operand value);
  VregId EmitLoadElem(SymbolId array, Operand index);
  void EmitStoreElem(SymbolId array, Operand index, Operand value);
  VregId EmitBinary(Opcode op, Operand a, Operand b);
  VregId EmitUnary(Opcode op, Operand a);
  VregId EmitCall(SymbolId fn, std::vector<Operand> args);
  void EmitRet();
  void EmitRet(Operand value);
  void EmitBr(BlockId target);
  void EmitCondBr(Operand cond, BlockId if_true, BlockId if_false);

  Module& module() { return module_; }
  Function& function() { return fn_; }

 private:
  Module& module_;
  Function& fn_;
  BlockId cur_ = kNoBlock;
  int line_ = 0;
};

}  // namespace lopass::ir
