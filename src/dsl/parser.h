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
//              | ident "=" expr ";"
//              | ident "[" expr "]" "=" expr ";"
//              | "if" "(" expr ")" block ["else" (block | ifstmt)]
//              | "while" "(" expr ")" block
//              | "for" "(" [simple] ";" [expr] ";" [simple] ")" block
//              | "return" [expr] ";"
//              | expr ";"
//   simple    := "var" ident "=" expr | ident "=" expr
//              | ident "[" expr "]" "=" expr
//
// Expressions use C precedence. `&&`/`||`/`!` are *arithmetic* (no
// short circuit): operands are normalized to 0/1 and combined, which
// matches the dataflow-graph view the partitioner needs.

#include <string_view>

#include "common/diag.h"
#include "dsl/ast.h"

namespace lopass::dsl {

// Parses `source` into an AST. Syntax errors are recorded in `sink`
// and the parser synchronizes (to the next ';' or '}' inside a block,
// to the next top-level declaration otherwise), so one malformed
// statement yields diagnostics for the whole file, not only the first.
// Returns the (possibly partial) program; callers must treat it as
// unusable when sink.has_errors().
Program Parse(std::string_view source, DiagnosticSink& sink);

}  // namespace lopass::dsl
