#pragma once

// AST-level program transformations.
//
// Loop unrolling is the classic HLS enabler for the paper's approach:
// replicating a loop body K times gives the list scheduler bigger
// dataflow blocks, which raises the achievable utilization rate U_R of
// an ASIC implementation (and amortizes the per-block controller
// cycle). The transform is trip-count agnostic — between replicas it
// re-checks the loop condition and breaks out — so it is semantics
// preserving for any `for` loop whose direct body contains no
// `continue` (which would skip the interleaved steps).
//
//   for (init; cond; step) { body }
//     =>
//   for (init; cond; step) {
//     body;  step;  if (!(cond)) { break; }
//     body;  step;  if (!(cond)) { break; }
//     body;                       // K-th copy; the loop's own step runs
//   }
//
// Variable/array declarations in replicas 2..K are rewritten to plain
// assignments (declarations are static in this frontend).

#include <string_view>

#include "dsl/ast.h"

namespace lopass::dsl {

// Deep copy (used by the transforms and available for tooling).
StmtPtr CloneStmt(const Stmt& s);

// Unrolls every eligible `for` loop in the program by `factor`
// (factor >= 2; 1 is a no-op). Loops whose direct body contains
// `continue`, or whose body exceeds `max_body_stmts` statements, are
// left alone. Returns the number of loops unrolled.
int UnrollLoops(Program& program, int factor, int max_body_stmts = 16);

}  // namespace lopass::dsl
