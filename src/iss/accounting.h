#pragma once

// The accounting pass: prices a Trace (recorded by Simulator::Execute)
// under a partition and a system configuration. The initial run is the
// pass with an empty partition and every line-15 re-simulation is the
// pass with the selected clusters, the way the paper's WARTS profiler
// turns per-partition access traces into cache hits and misses (§2).
//
// The pass walks the trace run by run. A run is the straight-line code
// of one block from where execution enters it up to its first control
// instruction or the block's end. Cycles are summed once per run (a
// saturating sum of non-negative terms does not depend on their order);
// every energy is still added once per instruction in execution order,
// so the doubles round exactly as a per-instruction simulation rounds
// them.

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/module.h"
#include "isa/isa.h"
#include "iss/energy_model.h"
#include "iss/simulator.h"
#include "power/tech_library.h"

namespace lopass::iss {

// The static tables of one program (per-pc energies, runs and the
// block-entry walks), built once and shared by every pass over its
// traces. Immutable after construction, so threads may share one.
class Accounting {
 public:
  Accounting(const ir::Module& module, const isa::SlProgram& program,
             const power::TechLibrary& lib = power::TechLibrary::Cmos6(),
             const TiwariModel& energy = TiwariModel::Sparclite());

  // Prices `trace`, an Execute of this program, under `partition`
  // (empty = all software) and `config`.
  SimResult Account(const Trace& trace, const HwPartition& partition,
                    const SystemConfig& config) const;

 private:
  // One pc, with what a run through it charges apart from the caches.
  struct Pc {
    Energy energy;                  // base + overhead after pc - 1
    Cycles run_cycles = 0;          // base cycles from here to run_end
    std::uint32_t run_end = 0;      // last pc of the run through this pc
    std::uint32_t next_access = 0;  // first ld/st pc >= this one in the run, else run_end + 1
    std::uint32_t block = 0;        // index into blocks_
    std::int32_t target = -1;       // SlInstr::target
    isa::SlOp op = isa::SlOp::kNop;
    isa::InstrClass cls = isa::InstrClass::kNop;
  };
  // Block entries (BlockCost::entries). A block with code is entered
  // exactly when its first pc executes, since calls return mid-block. A
  // block without code (a lone `br` to the block after it) is entered by
  // every control transfer that passes it on the way to the pc it
  // reaches. A Pass is one such block of one transfer.
  struct Pass {
    enum Via : std::uint8_t { kTaken, kFallThrough, kProgramEntry };
    std::uint32_t pc = 0;  // the transferring pc (the entry pc for kProgramEntry)
    Via via = kTaken;      // taken: a branch taken, a jump or a call
    ir::FunctionId fn = -1;
    ir::BlockId block = ir::kNoBlock;
  };

  void FindPasses(const ir::Module& module, const isa::SlProgram& program);

  const power::TechLibrary& lib_;
  const TiwariModel& energy_;
  std::uint32_t code_base_;              // fetch address of pc 0
  std::vector<std::size_t> num_blocks_;  // per function
  // The blocks with code, in code order; Pc::block indexes it.
  std::vector<std::pair<ir::FunctionId, ir::BlockId>> blocks_;
  // One per pc, then a sentinel whose next_access is itself.
  std::vector<Pc> pcs_;
  // Every function's entry walk (kProgramEntry, keyed on its entry pc)
  // and every transfer's.
  std::vector<Pass> passes_;
};

}  // namespace lopass::iss
