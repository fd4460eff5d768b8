#pragma once

// IR verifier — the first pass of the static-analysis stack (L1xx).
//
// Checks structural well-formedness of a Module and *accumulates* every
// violation into a DiagnosticSink instead of stopping at the first one,
// so a driver reports all structural problems of a bad module in a
// single pass. Each finding carries a stable L1xx code (catalogued in
// analysis/codes.h and docs/static_analysis.md) and, when the module
// was lowered from DSL source, the source line of the offending
// operation.

#include "common/diag.h"
#include "ir/module.h"

namespace lopass::ir {

// Verifies (all findings are errors):
//  - the module has at least one function            (L100)
//  - every function has blocks and an entry          (L101)
//  - every block ends in exactly one terminator      (L102, L103)
//  - operand arities match opcodes                   (L104)
//  - vreg operands are in range                      (L105)
//  - vreg operands are defined before use within their block; the
//    frontend never produces cross-block vreg liveness (L106)
//  - branch targets are in range                     (L107)
//  - readvar/writevar reference scalar symbols       (L108)
//  - loadelem/storeelem reference array symbols      (L109)
//  - call targets resolve to functions with a body   (L110)
//  - call arity matches the callee parameter count   (L111)
//  - no call is recursive, directly or through other
//    functions (storage is static)                   (L112)
//
// Returns true when no error was added (the sink may have prior,
// unrelated entries; only diagnostics added by this call count).
bool Verify(const Module& m, DiagnosticSink& sink);

// Adapter for callers on the throwing path (the optimizer):
// runs Verify and throws lopass::Error with *all* findings joined when
// the module is malformed.
void VerifyOrThrow(const Module& m);

}  // namespace lopass::ir
