#pragma once

// Reconstruction of the paper's "CMOS6" technology library.
//
// The paper derives, for every datapath resource type (ALU, multiplier,
// shifter, ...), an average power consumption P_av, a minimum cycle
// time T_cyc, a per-operation latency in cycles, and a hardware effort
// in gate equivalents GEQ (Fig. 1 line 11, Fig. 4 lines 16-18). The
// original NEC CMOS6 0.8u library is not available; the values below
// are reconstructed from 0.8u-era datapath literature and are chosen to
// preserve the *relative* magnitudes the algorithms depend on
// (multiplier >> ALU > shifter > comparator; see DESIGN.md section 2).

#include <array>
#include <cstdint>
#include <string>

#include "common/units.h"

namespace lopass::power {

// Datapath resource types an operation can be mapped to. Mirrors the
// paper's examples: "an ALU, a shifter, a multiplier etc." (footnote 10)
// plus registers and a memory port for loads/stores.
enum class ResourceType : std::uint8_t {
  kAlu = 0,        // add/sub/logic/compare capable 32-bit ALU
  kAdder,          // plain 32-bit carry-lookahead adder (add/sub only)
  kComparator,     // 32-bit magnitude comparator
  kShifter,        // 32-bit barrel shifter
  kMultiplier,     // 32x32 parallel multiplier
  kDivider,        // 32-bit sequential divider
  kRegister,       // 32-bit register (storage element)
  kMemoryPort,     // address generation + memory interface port
  kCount,
};

constexpr int kNumResourceTypes = static_cast<int>(ResourceType::kCount);

// Human-readable name, e.g. "ALU", "multiplier".
const char* ResourceTypeName(ResourceType t);

// Static characterization of one resource type in the library.
struct ResourceSpec {
  ResourceType type = ResourceType::kAlu;
  // Hardware effort in gate equivalents (2-input NAND equivalents).
  double geq = 0.0;
  // Average power consumed while the resource is clocked (Eq. 2's
  // P_av^rs), at the library's nominal voltage and frequency.
  Power average_power;
  // Minimum cycle time the resource can run at (Fig. 1 line 11 T_cyc).
  Duration min_cycle_time;
  // Latency of one operation in cycles (multiplier/divider are
  // multi-cycle; everything else completes in one).
  Cycles op_latency = 1;
  // Energy of one *active* operation at nominal conditions; used by the
  // gate-level-style refinement pass (Fig. 1 line 15).
  Energy energy_per_op;
};

// Global process/operating-point parameters of the 0.8u CMOS process
// the paper's experiments use ("parameters (feature sizes,
// capacitances) of a 0.8u CMOS process", section 4).
struct TechParams {
  double feature_um = 0.8;       // drawn feature size
  double vdd = 3.3;              // supply voltage [V]
  double clock_mhz = 25.0;       // nominal system clock
  // Interconnect/bus capacitance for one off-core bus line [F].
  double bus_line_capacitance = 12e-12;
  // Gate capacitance of a minimum inverter input [F]; basis of the
  // analytical cache model.
  double gate_capacitance = 15e-15;
  // SRAM bitline capacitance contributed by one cell [F].
  double bitline_cell_capacitance = 2.2e-15;
  // Wordline capacitance contributed by one cell [F].
  double wordline_cell_capacitance = 1.8e-15;
  // Bitline swing used during reads (sense amps limit the swing) [V].
  double bitline_swing = 0.9;
  // Energy of one sense amplifier activation [J].
  double sense_amp_energy = 2.0e-13;

  Duration clock_period() const { return Duration{1.0 / (clock_mhz * 1e6)}; }
};

// The technology library: resource specs + process parameters.
class TechLibrary {
 public:
  // The reconstructed CMOS6 0.8u library used by all experiments.
  static const TechLibrary& Cmos6();

  // Constant-field scaling of this library to another feature size
  // (classic Dennard rules, first order): with scale s = new/old,
  // voltage and capacitance scale by s, so switching energy scales by
  // s^3, delay by s, and power (at the faster clock) by s^2. Gate
  // counts are unchanged. Used to project the paper's 0.8µ results to
  // the intro's 0.18µ SOC node (bench_node_scaling).
  TechLibrary ScaledTo(double feature_um) const;

  const ResourceSpec& spec(ResourceType t) const;
  const TechParams& params() const { return params_; }

  // Energy of `ops` active operations on resource `t` (used energy).
  Energy active_energy(ResourceType t, std::uint64_t ops) const;

  // Energy of a single read/write transfer over the shared system bus
  // of Fig. 2a (E_bus_read / E_bus_write of Fig. 3 step 5). Reads and
  // writes imply different amounts of energy (footnote 9): a write
  // drives the full bus plus the memory write circuitry.
  Energy bus_read_energy() const;
  Energy bus_write_energy() const;

  // Fraction of active power burned by an idle, non-clock-gated
  // resource (the premise of section 3.1).
  double idle_power_fraction() const { return idle_power_fraction_; }

  // Builder-style mutators for ablation studies / custom libraries.
  TechLibrary& set_spec(const ResourceSpec& s);
  TechLibrary& set_params(const TechParams& p);
  TechLibrary& set_idle_power_fraction(double f);

  TechLibrary();  // empty library with default params; use Cmos6() normally

 private:
  std::array<ResourceSpec, kNumResourceTypes> specs_{};
  TechParams params_{};
  double idle_power_fraction_ = 0.45;
};

}  // namespace lopass::power
