#pragma once

// Structural Verilog skeleton emitter for synthesized ASIC cores.
//
// Fig. 5's hardware branch ends in RTL logic synthesis; this emitter
// produces the structural shell a behavioral-compilation backend would
// hand to it: the core's module interface (shared-bus handshake of
// Fig. 2a), one instance per allocated functional unit, the steering
// multiplexers implied by the binding, the register file and the FSM
// state register sized for the schedule. Functional-unit innards and
// the per-state control word table are left as `/* ... */` holes — the
// datapath *structure* (what Fig. 4's GEQ counts) is complete and
// consistent with the energy/area accounting.

#include <string>

#include "asic/datapath.h"
#include "asic/synthesis.h"

namespace lopass::asic {

// Width of every datapath vector the emitter declares (the SL32 word).
inline constexpr int kVerilogDataWidth = 32;

// Emits the structural skeleton for `core` with its `datapath`, as a
// module named after the core.
std::string EmitVerilog(const AsicCore& core, const Datapath& datapath);

}  // namespace lopass::asic
