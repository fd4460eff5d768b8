#pragma once

// Structural netlist lints (L5xx) for the synthesized ASIC core: the
// datapath/binding structure produced by BuildDatapath and the
// structural Verilog emitted from it.
//
// Run from the partitioner when PartitionOptions::self_check is on
// (with include_interconnect) and from the `lopass lint` driver.
// Findings accumulate; the checkers never throw.

#include <string>
#include <vector>

#include "asic/datapath.h"
#include "common/diag.h"

namespace lopass::asic {

// Validates the datapath against the schedule/binding it came from:
//  - no combinational loop among units within one control step
//    (operator chaining must stay acyclic per step)              (L500)
//  - no duplicate (type, instance) unit and no DFG node bound
//    more than once                                              (L502)
//  - every producer key resolves to an instantiated unit; a unit
//    executing operations has at least one input source          (L503)
//  - steering mux fan-in stays implementable (<= 32 legs;
//    warning)                                                    (L504)
//  - FSM state count == sum over blocks of max(num_steps, 1)
//    plus the idle state                                         (L505)
//
// `where` prefixes every message. Returns true when this call added
// no *error* (L504 is a warning and does not fail the check).
bool ValidateDatapath(const std::vector<ScheduledBlock>& blocks,
                      const UtilizationResult& util, const Datapath& datapath,
                      DiagnosticSink& sink, const std::string& where = {});

// Lints the emitted structural Verilog text against the datapath:
// every vector declaration must be kVerilogDataWidth wide except the
// FSM state register, which is sized by the state count (L501); every
// unit instance printed by the datapath must appear exactly once
// (L502/L503 at the text level).
bool ValidateVerilog(const std::string& verilog, const Datapath& datapath,
                     DiagnosticSink& sink, const std::string& where = {});

}  // namespace lopass::asic
