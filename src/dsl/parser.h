#pragma once

// Recursive-descent parser for the behavioral DSL.
//
// Grammar (EBNF, whitespace/comments elided):
//
//   program   := (gdecl | func)*
//   gdecl     := "var" ident ("=" constexpr)? ";"
//              | "array" ident "[" int "]" ";"
//   func      := "func" ident "(" [ident {"," ident}] ")" block
//   block     := "{" stmt* "}"
//   stmt      := "var" ident ("=" expr)? ";"
//              | "array" ident "[" int "]" ";"
//              | step ";"
//              | "if" "(" expr ")" block ["else" (block | ifstmt)]
//              | "while" "(" expr ")" block
//              | "for" "(" [simple] ";" [expr] ";" [step] ")" block
//              | "return" [expr] ";" | "break" ";" | "continue" ";"
//              | expr ";"
//   simple    := "var" ident "=" expr | step
//   step      := ident "=" expr | ident "[" expr "]" "=" expr
//   expr      := unary {binop unary}
//   unary     := ("-" | "~" | "!" | "+") unary | primary
//   primary   := int | ident | ident "[" expr "]"
//              | ident "(" [expr {"," expr}] ")" | "(" expr ")"
//
// Binary operators take C precedence, tightest first, and every level
// associates left (kBinaryOperators holds the levels):
//
//   10  * / %        7  < <= > >=      4  ^        1  ||
//    9  + -          6  == !=          3  |
//    8  << >>        5  &              2  &&
//
// `&&`/`||`/`!` are *arithmetic* (no short circuit): operands are
// normalized to 0/1 and combined, which matches the dataflow-graph view
// the partitioner needs.
//
// Nesting is bounded: parentheses, unary operators, indices, call
// arguments, right operands and blocks each open a level, and each
// operator of a left-leaning chain pushes the chain's earlier operands
// one level deeper. A statement nested deeper than kMaxNesting levels
// is a syntax error, so neither the parser nor any pass over the tree
// recurses without bound.

#include <string_view>

#include "common/diag.h"
#include "dsl/ast.h"
#include "dsl/lexer.h"
#include "ir/opcode.h"

namespace lopass::dsl {

inline constexpr int kMaxNesting = 256;

// The binary operators, in BinOp order: the token that spells each, its
// precedence level above and the IR opcode it lowers to (`&&` and `||`
// apply theirs to operands normalized to 0/1).
struct BinaryOperator {
  TokKind token;
  int precedence;
  BinOp op;
  ir::Opcode opcode;
};
inline constexpr BinaryOperator kBinaryOperators[] = {
    {TokKind::kPlus, 9, BinOp::kAdd, ir::Opcode::kAdd},
    {TokKind::kMinus, 9, BinOp::kSub, ir::Opcode::kSub},
    {TokKind::kStar, 10, BinOp::kMul, ir::Opcode::kMul},
    {TokKind::kSlash, 10, BinOp::kDiv, ir::Opcode::kDiv},
    {TokKind::kPercent, 10, BinOp::kMod, ir::Opcode::kMod},
    {TokKind::kAmp, 5, BinOp::kAnd, ir::Opcode::kAnd},
    {TokKind::kPipe, 3, BinOp::kOr, ir::Opcode::kOr},
    {TokKind::kCaret, 4, BinOp::kXor, ir::Opcode::kXor},
    {TokKind::kShl, 8, BinOp::kShl, ir::Opcode::kShl},
    {TokKind::kShr, 8, BinOp::kShr, ir::Opcode::kSar},
    {TokKind::kEq, 6, BinOp::kEq, ir::Opcode::kCmpEq},
    {TokKind::kNe, 6, BinOp::kNe, ir::Opcode::kCmpNe},
    {TokKind::kLt, 7, BinOp::kLt, ir::Opcode::kCmpLt},
    {TokKind::kLe, 7, BinOp::kLe, ir::Opcode::kCmpLe},
    {TokKind::kGt, 7, BinOp::kGt, ir::Opcode::kCmpGt},
    {TokKind::kGe, 7, BinOp::kGe, ir::Opcode::kCmpGe},
    {TokKind::kAmpAmp, 2, BinOp::kLogicalAnd, ir::Opcode::kAnd},
    {TokKind::kPipePipe, 1, BinOp::kLogicalOr, ir::Opcode::kOr},
};

// Parses `source` into an AST. Syntax errors are recorded in `sink`
// and the parser synchronizes (to the next ';' or '}' inside a block,
// to the next top-level declaration otherwise), so one malformed
// statement yields diagnostics for the whole file, not only the first.
// Returns the (possibly partial) program; callers must treat it as
// unusable when sink.has_errors().
Program Parse(std::string_view source, DiagnosticSink& sink);

}  // namespace lopass::dsl
