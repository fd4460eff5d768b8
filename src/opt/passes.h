#pragma once

// IR optimization passes.
//
// The paper's behavioral descriptions pass through a "behavioral
// compilation tool" before synthesis (Fig. 5); on the software side the
// code quality of the compiler shifts the HW/SW break-even point. This
// module provides the classic block-local scalar optimizations —
// constant folding, local common-subexpression elimination and dead
// code elimination — so both sides of the partition are measured on
// reasonably compiled code. The passes preserve program semantics
// exactly (asserted by randomized equivalence tests) and never change
// the block structure, so the structural region tree stays valid.

#include <cstdint>
#include <string>

#include "ir/module.h"

namespace lopass::opt {

struct PassStats {
  std::uint64_t folded_ops = 0;       // ops replaced by constants
  std::uint64_t folded_operands = 0;  // vreg operands replaced by immediates
  std::uint64_t cse_reused = 0;       // ops replaced by an earlier identical op
  std::uint64_t dce_removed = 0;      // dead ops removed
  std::uint64_t branches_simplified = 0;  // condbr with constant condition

  std::uint64_t total() const {
    return folded_ops + cse_reused + dce_removed + branches_simplified;
  }
  std::string ToString() const;
};

// Folds operations whose operands are all compile-time constants and
// propagates constants into operand slots (so `x = 2 + 3; y = x << 1`
// becomes `y = 10`). Conditional branches on constants become
// unconditional. Runs to a fixed point within each block.
PassStats ConstantFold(ir::Module& module);

// Replaces a pure operation that recomputes an earlier, still-valid
// expression in the same block with a copy of that result. readvar is
// treated as pure until the next writevar of the same symbol, loadelem
// until the next storeelem of the same array.
PassStats LocalCse(ir::Module& module);

// Removes operations whose results are never used and that have no
// side effects (stores, calls, writes and terminators are kept).
PassStats DeadCodeElim(ir::Module& module);

// ConstantFold + LocalCse + DeadCodeElim to a fixed point (at most
// four rounds). Verifies the module afterwards.
PassStats RunStandardPasses(ir::Module& module);

}  // namespace lopass::opt
