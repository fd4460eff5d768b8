#pragma once

// SL32: a SPARClite-class 32-bit RISC instruction set.
//
// The paper's software side runs on an LSI/Fujitsu SPARClite core with
// an instruction-level energy model in the style of Tiwari et al. [12].
// SL32 reconstructs that substrate: a small load/store RISC with the
// latency profile of an early-90s embedded core (single-cycle ALU,
// multi-cycle multiply/divide, blocking caches). Register conventions:
// r0 is hardwired zero, r2 carries return values, r8..r25 are
// caller-scratch temporaries used by the code generator.

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "ir/module.h"

namespace lopass::isa {

enum class SlOp : std::uint8_t {
  kNop,
  // ALU (rd, rs1, rs2/imm).
  kAdd, kSub, kAnd, kOr, kXor,
  kSll, kSrl, kSra,
  kMul, kDiv, kMod,
  kMin, kMax,               // DSP extension of the core
  kSeq, kSne, kSlt, kSle, kSgt, kSge,  // set-on-comparison
  kLi,                      // rd <- imm
  // Memory (rd/rs value, rs1 base, imm offset).
  kLd, kSt,
  // Control flow.
  kBeqz, kBnez,             // conditional branch on rs1, target
  kJ,                       // unconditional jump, target
  kCall,                    // call function whose entry is `target`
  kRet,
};

const char* SlOpName(SlOp op);

// Broad instruction class used by the energy model and the utilization
// analysis (which µP resources an instruction keeps busy).
enum class InstrClass : std::uint8_t {
  kAlu, kShift, kMul, kDiv, kLoad, kStore, kBranch, kJump, kCall, kNop,
};

InstrClass ClassOf(SlOp op);

// Base latency in cycles, excluding cache-miss stalls.
lopass::Cycles BaseCycles(SlOp op);

struct SlInstr {
  SlOp op = SlOp::kNop;
  std::int16_t rd = 0;
  std::int16_t rs1 = 0;
  std::int16_t rs2 = 0;
  bool use_imm = false;      // second ALU operand is `imm` instead of rs2
  std::int64_t imm = 0;      // immediate / memory offset
  std::int32_t target = -1;  // instruction index for branches/calls

  // Attribution: which IR block this instruction implements. This is
  // how the simulator knows whether an instruction belongs to a
  // cluster that has been moved to the ASIC core.
  ir::FunctionId fn = -1;
  ir::BlockId block = ir::kNoBlock;
  // The IR block a branch or jump transfers to. `target` is that
  // block's first pc, or the next code block's when the block emits no
  // code; the simulator counts block entries through it.
  ir::BlockId target_block = ir::kNoBlock;
  // The bounds check of an element access, on the instruction that
  // holds its index: the `sll` that scales a dynamic index (in rs1), or
  // the ld/st of a constant `array_index`. The simulator rejects an
  // index outside the array with the interpreter's message for
  // `array_access` (kLoadElem or kStoreElem).
  ir::SymbolId array = ir::kNoSymbol;
  ir::Opcode array_access = ir::Opcode::kLoadElem;
  std::int64_t array_index = 0;
};

// Register file size and conventions.
constexpr int kNumRegs = 32;
constexpr int kZeroReg = 0;
constexpr int kRetValReg = 2;
constexpr int kFirstTempReg = 8;
constexpr int kLastTempReg = 25;

struct FuncInfo {
  ir::FunctionId fn = -1;
  std::string name;
  std::uint32_t entry = 0;       // instruction index of the entry point
  std::uint32_t end = 0;         // one past the last instruction
  std::uint32_t spill_base = 0;  // byte address of this function's spill area
  std::uint32_t spill_words = 0;
};

// A fully linked SL32 program.
struct SlProgram {
  std::vector<SlInstr> code;
  std::vector<FuncInfo> functions;
  // Data space size including static data and spill areas.
  std::uint32_t data_size_bytes = 0;
  // Code base address (i-cache addresses = code_base + 4*index).
  std::uint32_t code_base = 0x0001'0000;

  const FuncInfo& function(ir::FunctionId fn) const;
};

std::string ToString(const SlProgram& p);

}  // namespace lopass::isa
