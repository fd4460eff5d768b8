#pragma once

// Objective function of the partitioning process (Fig. 1 line 13):
//
//   OF = F · (E_R^core + E_µP^core + E_rest) / E_0  +  G · GEQ / GEQ_0
//
// "F is a factor given by the designer to balance the objective
// function between energy consumption and possible other design
// constraints" (§3.2); the trailing "+ ..." of the paper is realized as
// a hardware-effort term, which is what makes the algorithm "reject
// clusters that would result in an unacceptably high hardware effort
// (due to factor F)" (§4).

#include "common/units.h"

namespace lopass::core {

// GEQ_0, the hardware-effort normalization.
inline constexpr double kGeqNorm = 20000.0;

struct ObjectiveParams {
  double f = 1.0;   // energy weight (designer's F)
  double g = 0.25;  // hardware-effort weight
};

inline double Objective(Energy total_energy, Energy e0, double geq,
                        const ObjectiveParams& p) {
  const double energy_term = e0.joules > 0.0 ? total_energy.joules / e0.joules : 0.0;
  return p.f * energy_term + p.g * (geq / kGeqNorm);
}

// OF of the unpartitioned design (E = E_0, no extra hardware).
inline double BaselineObjective(const ObjectiveParams& p) { return p.f; }

}  // namespace lopass::core
