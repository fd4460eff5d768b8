#pragma once

// Operation set of the lopass intermediate representation.
//
// The paper's step 1 derives "a graph G = {V, E}" whose nodes represent
// operations (section 3.2). Our IR is that graph: functions of basic
// blocks of operations on virtual registers, with named-variable
// read/write operations that carry the gen/use information the
// bus-transfer estimator (Fig. 3) needs.

#include <cstdint>

namespace lopass::ir {

enum class Opcode : std::uint8_t {
  // Data movement.
  kConst,     // result <- imm
  kMov,       // result <- a
  kReadVar,   // result <- named scalar variable (sym)
  kWriteVar,  // named scalar variable (sym) <- a
  kLoadElem,  // result <- array sym [a]
  kStoreElem, // array sym [a] <- b

  // Arithmetic.
  kAdd, kSub, kMul, kDiv, kMod, kNeg,

  // Bitwise / shifts.
  kAnd, kOr, kXor, kNot, kShl, kShr, kSar,

  // Comparisons (result is 0/1).
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,

  // Min/max (single-cycle ALU ops on DSP datapaths).
  kMin, kMax,

  // Control flow / calls.
  kCall,     // result <- call function sym(args...)
  kRet,      // return (optionally a)
  kBr,       // unconditional jump to target0
  kCondBr,   // if a != 0 goto target0 else target1
};

const char* OpcodeName(Opcode op);

// Number of value operands the opcode consumes (excluding block
// targets); kCall is variadic and returns -1.
int OpcodeArity(Opcode op);

bool IsTerminator(Opcode op);
bool IsBinaryArith(Opcode op);
bool IsComparison(Opcode op);
// True for the value-only ops ir::EvalPure computes (ir/eval.h): kConst,
// kMov, kNeg, kNot and every binary arithmetic and comparison op.
bool IsPure(Opcode op);
// True if the op produces a result value.
bool ProducesResult(Opcode op);

}  // namespace lopass::ir
