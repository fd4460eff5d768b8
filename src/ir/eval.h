#pragma once

// The one definition of IR arithmetic, and of the run-time faults
// every engine raises.
//
// The reference interpreter (interp/interpreter.h), constant folding
// (opt/passes.h) and the L205/L207 lint folder (analysis/dataflow_lint)
// all compute program values through EvalPure, so a folded constant is
// exactly the value the program computes at run time. Values are 64-bit
// two's complement: add/sub/mul/neg/shl/div/mod wrap (common/units.h),
// shift counts are taken mod 64 and comparisons yield 0 or 1. The ISS
// implements the same semantics for SL32 instructions.

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "common/units.h"
#include "ir/opcode.h"

namespace lopass::ir {

// True when `op` traps on divisor `b`: division or modulo by zero. The
// folders leave such an op unfolded; EvalPure throws on it.
constexpr bool Traps(Opcode op, std::int64_t b) {
  return b == 0 && (op == Opcode::kDiv || op == Opcode::kMod);
}

// Throws lopass::Error for an op EvalPure cannot evaluate: "division by
// zero", "modulo by zero", or an op that is not pure. Out of line
// (ir/opcode.cc) so that EvalPure stays small enough to inline.
[[noreturn]] void ThrowEvalError(Opcode op);

// Throws lopass::Error for an element access (kLoadElem or kStoreElem)
// at `index` outside `array` of `length` elements, e.g. "array index out
// of range on load of 'a' (4 of 4)". The interpreter and the ISS both
// raise it, so a failing workload reads the same in either engine.
[[noreturn]] void ThrowIndexError(Opcode op, std::string_view array, std::int64_t index,
                                  std::uint32_t length);

// Value of the pure operation `op` (IsPure) on `a`, and on `b` for a
// binary op; kConst and kMov yield `a`. Throws when Traps(op, b).
inline std::int64_t EvalPure(Opcode op, std::int64_t a, std::int64_t b = 0) {
  switch (op) {
    case Opcode::kConst:
    case Opcode::kMov: return a;
    case Opcode::kNeg: return WrapNeg(a);
    case Opcode::kNot: return ~a;
    case Opcode::kAdd: return WrapAdd(a, b);
    case Opcode::kSub: return WrapSub(a, b);
    case Opcode::kMul: return WrapMul(a, b);
    case Opcode::kDiv:
      if (b == 0) break;
      return WrapDiv(a, b);
    case Opcode::kMod:
      if (b == 0) break;
      return WrapMod(a, b);
    case Opcode::kAnd: return a & b;
    case Opcode::kOr: return a | b;
    case Opcode::kXor: return a ^ b;
    case Opcode::kShl: return WrapShl(a, b);
    case Opcode::kShr:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >> (b & 63));
    case Opcode::kSar: return a >> (b & 63);
    case Opcode::kMin: return std::min(a, b);
    case Opcode::kMax: return std::max(a, b);
    case Opcode::kCmpEq: return a == b;
    case Opcode::kCmpNe: return a != b;
    case Opcode::kCmpLt: return a < b;
    case Opcode::kCmpLe: return a <= b;
    case Opcode::kCmpGt: return a > b;
    case Opcode::kCmpGe: return a >= b;
    default: break;
  }
  ThrowEvalError(op);
}

}  // namespace lopass::ir
