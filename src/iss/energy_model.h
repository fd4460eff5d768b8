#pragma once

// Instruction-level energy model of the SL32 (SPARClite-class) µP core,
// after Tiwari/Malik/Wolfe [12]: every instruction has a base energy
// cost, consecutive instructions of different classes pay a
// circuit-state overhead, and stall cycles (cache misses) have their
// own per-cycle energy. The original measured mA tables are not
// available; the values below reproduce the published magnitudes for a
// 0.8u 3.3V embedded core (~0.3-0.5 W at 25 MHz).

#include <array>
#include <cstdint>

#include "common/units.h"
#include "isa/isa.h"

namespace lopass::iss {

// Datapath resources inside the µP core whose utilization rates u_rs
// (Eq. 1) the partitioner compares against ASIC implementations.
enum class UpResource : std::uint8_t {
  kAlu = 0, kShifter, kMultiplier, kDivider, kMemPort, kRegFile, kCount,
};
constexpr int kNumUpResources = static_cast<int>(UpResource::kCount);
// The register file is tracked but excluded from the U_µP average so
// the comparison against U_R^core covers the same population (the ASIC
// side's register file is storage, not an averaged datapath operator).
constexpr int kNumAveragedUpResources = kNumUpResources - 1;

class TiwariModel {
 public:
  // The default SL32/SPARClite-class characterization.
  static const TiwariModel& Sparclite();

  TiwariModel();

  // Base energy of one instruction of the given class (whole
  // instruction, i.e. across all of its base cycles).
  Energy base_energy(isa::InstrClass c) const {
    return base_[static_cast<std::size_t>(c)];
  }

  // Circuit-state overhead paid between consecutive instructions.
  // Tiwari's method measures a full pair matrix; ours is populated
  // with class-pair values (symmetric) — e.g. switching between the
  // ALU and the multiplier costs more than between two ALU ops.
  Energy overhead(isa::InstrClass prev, isa::InstrClass cur) const {
    return overhead_[static_cast<std::size_t>(prev)][static_cast<std::size_t>(cur)];
  }

  // Energy of one pipeline stall cycle (cache miss, bus wait).
  Energy stall_energy_per_cycle() const { return stall_; }

  // Which µP resources an instruction of class `c` keeps actively used
  // during its execution (bitmask over UpResource).
  std::uint32_t active_resources(isa::InstrClass c) const {
    return active_[static_cast<std::size_t>(c)];
  }

  // Mutators for calibration / ablation.
  // Uniform overrides: same-class diagonal and all off-diagonal pairs.
  TiwariModel& set_overheads(Energy same_class, Energy switch_class);
  // One specific pair (set symmetrically).
  TiwariModel& set_pair_overhead(isa::InstrClass a, isa::InstrClass b, Energy e);

  // Uniformly scales every energy in the model (base, overhead matrix,
  // stall) — used together with TechLibrary::ScaledTo for technology-
  // node projections.
  TiwariModel ScaledBy(double energy_factor) const;

 private:
  std::array<Energy, 10> base_{};
  std::array<std::uint32_t, 10> active_{};
  std::array<std::array<Energy, 10>, 10> overhead_{};
  Energy stall_;
};

}  // namespace lopass::iss
