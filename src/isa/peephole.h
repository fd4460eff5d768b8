#pragma once

// Peephole optimizer for generated SL32 code.
//
// The code generator is deliberately simple (memory-resident variables,
// block-local allocation); a peephole pass recovers some of the obvious
// slack, the way a production assembler-level optimizer would:
//
//   * self-moves    `or rd, rd, r0`                        -> removed
//   * add/sub zero  `add rd, rd, #0`                       -> removed
//   * store-load    `st rA,[rB+k]; ld rC,[rB+k]`           -> `or rC, rA, r0`
//   * jump-to-next  `j L` where L is the next instruction  -> removed
//
// Removing instructions renumbers the stream, so every branch/call
// target and every FuncInfo range is re-linked. Attribution (fn/block,
// the IR target block, the bounds check) is preserved. Semantics are
// identical (randomized ISS-equivalence tests assert it).

#include <cstdint>

#include "isa/isa.h"

namespace lopass::isa {

struct PeepholeStats {
  std::uint64_t self_moves = 0;
  std::uint64_t add_zero = 0;
  std::uint64_t store_load = 0;
  std::uint64_t jump_to_next = 0;

  std::uint64_t total() const {
    return self_moves + add_zero + store_load + jump_to_next;
  }
};

// Rewrites `program` in place to a fixed point (at most four rounds).
PeepholeStats Peephole(SlProgram& program);

}  // namespace lopass::isa
