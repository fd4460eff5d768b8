#pragma once

// Lowering from the DSL AST to the lopass IR.
//
// Produces (a) the operation graph G = {V, E} (Fig. 1 step 1) and (b)
// the structural region tree used for cluster decomposition (Fig. 1
// step 2). Expression temporaries become block-local virtual
// registers; named variables become module symbols so that the gen/use
// analysis of Fig. 3 sees exactly the program's variables and arrays.

#include <string_view>

#include "common/diag.h"
#include "ir/module.h"
#include "ir/region.h"

namespace lopass::dsl {

struct LoweredProgram {
  ir::Module module;
  ir::RegionTree regions;
};

// The frontend: parse with error recovery (so every syntax error in
// the file is reported, with source locations), unroll loops by
// `unroll_factor` (see UnrollLoops), lower and verify. Never throws for
// malformed input — all problems come back as diagnostics on the
// failed Result.
Result<LoweredProgram> CompileToResult(std::string_view source, int unroll_factor = 1,
                                       int max_body_stmts = 16);

// CompileToResult for callers that treat a bad program as an error:
// throws lopass::Error with every diagnostic joined.
LoweredProgram Compile(std::string_view source, int unroll_factor = 1,
                       int max_body_stmts = 16);

}  // namespace lopass::dsl
