#pragma once

// ASIC core synthesis and energy estimation (Fig. 1 lines 11, 14, 15).
//
// "Synthesis" here means fixing the allocation/binding produced by the
// utilization analysis, adding the controller, and producing the two
// energy estimates the flow uses:
//   * the quick estimate E_R = U_R · Σ (P_av · N_cyc · T_cyc) that
//     drives the objective function (line 11), and
//   * a gate-level-style refined estimate (line 15) that separately
//     accounts each instance's active switching energy and the idle
//     (not-actively-used) energy of Eq. 2, plus controller overhead.

#include <array>
#include <string>

#include "asic/datapath.h"
#include "asic/utilization.h"
#include "common/units.h"
#include "power/tech_library.h"

namespace lopass::asic {

// A synthesized application-specific core.
struct AsicCore {
  std::string name;
  std::string resource_set;
  double utilization = 0.0;       // U_R^core
  double geq = 0.0;               // incl. controller
  double cells = 0.0;             // paper's "k cells" metric (one per GEQ)
  // The core is clocked at the speed of its slowest instantiated
  // resource (its critical path), independent of the µP clock.
  Duration clock_period;
  lopass::Cycles control_steps = 0;  // native ASIC cycles
  // Execution time expressed in µP-clock-equivalent cycles, so Table 1
  // can sum µP and ASIC contributions (the paper's "Exec. Time
  // [cycles]" columns do exactly that).
  lopass::Cycles cycles = 0;
  Energy estimate_energy;         // Fig. 1 line 11
  Energy refined_energy;          // Fig. 1 line 15 (used for Table 1)
  std::array<int, power::kNumResourceTypes> instances{};
};

// The core's clock period: the largest min_cycle_time among the
// instantiated resources (`instances` counts them per type), never
// below the controller's 8 ns floor.
Duration CoreClockPeriod(const std::array<int, power::kNumResourceTypes>& instances,
                         const power::TechLibrary& lib);

// `datapath_geq` plus the controller's area: the GEQ a synthesized core
// reports for that datapath (the controller adds a fixed fraction).
double WithControllerGeq(double datapath_geq);

// Builds the core from a utilization/binding result, clocked at
// CoreClockPeriod(util.instances, lib). The controller adds area
// (WithControllerGeq) and burns a fixed fraction of the datapath's
// energy.
// `datapath_registers` sizes the register file (scalar values the
// cluster keeps locally); it contributes area and is clocked — hence
// burns power — every cycle.
// When `datapath` is given, the steering network (input muxes) derived
// from the binding is folded into area and energy — a cost Fig. 4's
// GEQ_RS omits (see bench_ablation_mux).
AsicCore Synthesize(const std::string& name, const std::string& resource_set,
                    const UtilizationResult& util, const power::TechLibrary& lib,
                    int datapath_registers = 8, const Datapath* datapath = nullptr);

// The quick estimate alone (Fig. 1 line 11), usable without synthesis.
Energy EstimateEnergy(const UtilizationResult& util, const power::TechLibrary& lib);

}  // namespace lopass::asic
