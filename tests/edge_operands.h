#pragma once

// Edge operands for the differential oracles: every binary IR opcode
// applied to every pair drawn from INT64_MIN, INT64_MAX, -1, 0, 1, 63,
// 64 and 65 — the values where wrapping, the one overflowing quotient
// (INT64_MIN / -1) and shift-count masking show.

#include <cstdint>
#include <limits>
#include <string>

#include "ir/module.h"

namespace lopass {

inline constexpr std::int64_t kEdgeOperands[] = {
    std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max(),
    -1, 0, 1, 63, 64, 65};

// DSL spelling of a binary opcode: prefix, a, infix, b, ")".
struct BinaryForm {
  ir::Opcode op;
  const char* prefix;
  const char* infix;
};

// Every binary opcode. kShr has no DSL operator: it is spelled `>>`
// (kSar), and RetargetSarToShr rewrites the compiled op.
inline constexpr BinaryForm kBinaryForms[] = {
    {ir::Opcode::kAdd, "(", " + "},    {ir::Opcode::kSub, "(", " - "},
    {ir::Opcode::kMul, "(", " * "},    {ir::Opcode::kDiv, "(", " / "},
    {ir::Opcode::kMod, "(", " % "},    {ir::Opcode::kAnd, "(", " & "},
    {ir::Opcode::kOr, "(", " | "},     {ir::Opcode::kXor, "(", " ^ "},
    {ir::Opcode::kShl, "(", " << "},   {ir::Opcode::kShr, "(", " >> "},
    {ir::Opcode::kSar, "(", " >> "},   {ir::Opcode::kMin, "min(", ", "},
    {ir::Opcode::kMax, "max(", ", "},  {ir::Opcode::kCmpEq, "(", " == "},
    {ir::Opcode::kCmpNe, "(", " != "}, {ir::Opcode::kCmpLt, "(", " < "},
    {ir::Opcode::kCmpLe, "(", " <= "}, {ir::Opcode::kCmpGt, "(", " > "},
    {ir::Opcode::kCmpGe, "(", " >= "},
};

inline std::string Apply(const BinaryForm& f, const std::string& a, const std::string& b) {
  return f.prefix + a + f.infix + b + ")";
}

// DSL literal for `v`. INT64_MIN has no decimal spelling (its magnitude
// exceeds INT64_MAX), so it is written in hex.
inline std::string Literal(std::int64_t v) {
  if (v == std::numeric_limits<std::int64_t>::min()) return "0x8000000000000000";
  std::string s = "(";
  s += std::to_string(v);
  s += ')';
  return s;
}

// Turns every kSar of `m` into kShr (see kBinaryForms).
inline void RetargetSarToShr(ir::Module& m) {
  for (ir::Function& fn : m.functions_mutable()) {
    for (ir::BasicBlock& bb : fn.blocks) {
      for (ir::Instr& in : bb.instrs) {
        if (in.op == ir::Opcode::kSar) in.op = ir::Opcode::kShr;
      }
    }
  }
}

}  // namespace lopass
