#pragma once

// IR dataflow lints (L2xx) — warnings about suspicious-but-legal
// programs, computed over the module's named variables with the same
// gen/use machinery vocabulary as the Fig. 3 bus-traffic analysis.
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

struct DataflowLintOptions {
  // Entry function; exempt from the unused-function lint (L206).
  std::string entry = "main";
};

// Runs all L2xx lints over the module, appending findings (warnings)
// to the sink:
//   L200 read of a local scalar that is never assigned
//   L201 store to a local scalar whose value is never read (liveness
//        with the persistence edge; calls conservatively use their
//        callee's full use closure)
//   L202 variable never referenced
//   L203 array never referenced
//   L204 unreachable block (lowering scaffolding — bare branches and
//        valueless returns — is exempt)
//   L205 branch condition is constant
//   L206 function never called (entry exempt)
//   L207 constant array index out of bounds (per-block constant
//        propagation folds index arithmetic with ir::EvalPure, the
//        runtime's semantics, then proves 0 <= index < length)
void RunDataflowLints(const ir::Module& module, DiagnosticSink& sink,
                      const DataflowLintOptions& options = {});

}  // namespace lopass::analysis
