#pragma once

// IR dataflow lints (L2xx) — warnings about suspicious-but-legal
// programs, computed over the module's named variables; calls use the
// Fig. 3 bus-traffic analysis's function summaries (core/dataflow.h).
//
// lopass memory semantics matter here: scalars and arrays are
// *statically allocated* and persist across calls (embedded style, no
// recursion). A local may therefore legally carry a value from one
// invocation of its function to the next — e.g. a filter's ring-buffer
// index that is read before it is written in every call after the
// first. The lints account for that:
//  - L200 only fires for locals that are never assigned *anywhere*,
//  - the L201 liveness problem adds a persistence edge from every exit
//    back to the entry (a local live at function entry is live at every
//    return).

#include <string>

#include "common/diag.h"
#include "ir/module.h"

namespace lopass::analysis {

// Runs all L2xx lints over a verified module, appending findings
// (warnings) to the sink. `entry` is exempt from L206:
//   L200 read of a local scalar that is never assigned
//   L201 store to a local scalar whose value is never read (liveness
//        with the persistence edge; calls conservatively use their
//        callee's full use closure)
//   L202 variable never referenced
//   L203 array never referenced
//   L204 unreachable block (lowering scaffolding — bare branches and
//        valueless returns — is exempt)
//   L205 branch condition is constant
//   L206 function never called (`entry` exempt)
//   L207 constant array index out of bounds (per-block constant
//        propagation folds index arithmetic with ir::EvalPure, the
//        runtime's semantics, then proves 0 <= index < length)
void RunDataflowLints(const ir::Module& module, const std::string& entry,
                      DiagnosticSink& sink);

}  // namespace lopass::analysis
