#pragma once

// Structural view of the synthesized ASIC core.
//
// Fig. 1 line 14 "synthesize[s] a core": from the binding produced by
// the utilization analysis this module derives the datapath structure a
// behavioral-synthesis backend would emit — functional-unit instances,
// the steering logic (input multiplexers) each instance needs, and the
// controller FSM's state count. asic::EmitVerilog (asic/verilog.h)
// renders it as a structural netlist.
//
// The interconnect model also quantifies what Fig. 4's GEQ omits: every
// distinct producer feeding an instance input adds a mux leg, costing
// area and switching energy. Synthesize folds it into the core when
// given the datapath (see bench_ablation_mux).

#include <array>
#include <cstdint>
#include <vector>

#include "asic/utilization.h"
#include "power/tech_library.h"

namespace lopass::asic {

// One functional-unit instance and its steering requirements.
struct DatapathUnit {
  power::ResourceType type = power::ResourceType::kAlu;
  int instance = 0;
  std::uint64_t ops = 0;              // dynamic operations executed
  std::uint64_t active_cycles = 0;
  // Distinct producer units feeding this unit's inputs (drives the mux
  // width in front of it). Producer key: type*256+instance, -1 = from
  // the register file.
  std::vector<int> producers;

  int mux_legs() const { return static_cast<int>(producers.size()); }
};

struct Datapath {
  std::vector<DatapathUnit> units;
  // FSM states = total distinct control steps across the cluster's
  // blocks (one state per step plus one idle state).
  std::uint32_t fsm_states = 0;
  // Interconnect totals.
  int total_mux_legs = 0;
  double mux_geq = 0.0;      // area of the steering network
  Energy mux_energy_per_op;  // average steering energy per routed operand
};

// Derives the datapath structure from a utilization/binding result and
// the scheduled blocks it was computed from.
Datapath BuildDatapath(const std::vector<ScheduledBlock>& blocks,
                       const UtilizationResult& util);

}  // namespace lopass::asic
