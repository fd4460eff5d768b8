#include "power/tech_library.h"

#include "common/error.h"

namespace lopass::power {

const char* ResourceTypeName(ResourceType t) {
  switch (t) {
    case ResourceType::kAlu: return "ALU";
    case ResourceType::kAdder: return "adder";
    case ResourceType::kComparator: return "comparator";
    case ResourceType::kShifter: return "shifter";
    case ResourceType::kMultiplier: return "multiplier";
    case ResourceType::kDivider: return "divider";
    case ResourceType::kRegister: return "register";
    case ResourceType::kMemoryPort: return "memport";
    case ResourceType::kCount: break;
  }
  return "?";
}

TechLibrary::TechLibrary() = default;

namespace {

ResourceSpec MakeSpec(ResourceType type, double geq, double p_av_mw,
                      double t_cyc_ns, Cycles latency, double e_op_pj) {
  ResourceSpec s;
  s.type = type;
  s.geq = geq;
  s.average_power = Power::from_milliwatts(p_av_mw);
  s.min_cycle_time = Duration::from_nanoseconds(t_cyc_ns);
  s.op_latency = latency;
  s.energy_per_op = Energy::from_picojoules(e_op_pj);
  return s;
}

TechLibrary BuildCmos6() {
  TechLibrary lib;
  // Values reconstructed for a 0.8u, 3.3V standard-cell process
  // (see DESIGN.md). GEQ = 2-input NAND equivalents.
  //                      type                        GEQ    P_av   T_cyc lat  E/op
  //                                                         [mW]   [ns]       [pJ]
  lib.set_spec(MakeSpec(ResourceType::kAlu,         1450.0,  4.2,  22.0, 1,  420.0));
  lib.set_spec(MakeSpec(ResourceType::kAdder,        780.0,  2.3,  16.0, 1,  230.0));
  lib.set_spec(MakeSpec(ResourceType::kComparator,   310.0,  0.9,  10.0, 1,   90.0));
  lib.set_spec(MakeSpec(ResourceType::kShifter,      920.0,  2.6,  14.0, 1,  260.0));
  lib.set_spec(MakeSpec(ResourceType::kMultiplier,  7900.0, 26.0,  38.0, 2, 2600.0));
  // The CMOS6 datapath divider is an area-efficient radix-2 sequential
  // unit: long latency, modest power. (The SPARClite µP core's own
  // divide unit is faster; see iss/energy_model.h.)
  lib.set_spec(MakeSpec(ResourceType::kDivider,     9800.0, 18.0,  34.0, 32, 3100.0));
  lib.set_spec(MakeSpec(ResourceType::kRegister,     125.0,  0.5,   6.0, 1,   50.0));
  lib.set_spec(MakeSpec(ResourceType::kMemoryPort,   540.0,  1.8,  20.0, 1,  180.0));

  TechParams p;
  p.feature_um = 0.8;
  p.vdd = 3.3;
  p.clock_mhz = 25.0;
  lib.set_params(p);
  lib.set_idle_power_fraction(0.45);
  return lib;
}

}  // namespace

const TechLibrary& TechLibrary::Cmos6() {
  static const TechLibrary lib = BuildCmos6();
  return lib;
}

TechLibrary TechLibrary::ScaledTo(double feature_um) const {
  LOPASS_CHECK(feature_um > 0.0, "feature size must be positive");
  const double s = feature_um / params_.feature_um;  // < 1 when shrinking
  TechLibrary out = *this;

  TechParams p = params_;
  p.feature_um = feature_um;
  p.vdd = params_.vdd * s;
  p.clock_mhz = params_.clock_mhz / s;
  p.bus_line_capacitance = params_.bus_line_capacitance * s;
  p.gate_capacitance = params_.gate_capacitance * s;
  p.bitline_cell_capacitance = params_.bitline_cell_capacitance * s;
  p.wordline_cell_capacitance = params_.wordline_cell_capacitance * s;
  p.bitline_swing = params_.bitline_swing * s;
  p.sense_amp_energy = params_.sense_amp_energy * s * s * s;
  out.set_params(p);

  for (int t = 0; t < kNumResourceTypes; ++t) {
    ResourceSpec spec = specs_[static_cast<std::size_t>(t)];
    // P = E/t: energy ~ s^3, delay ~ s -> average power ~ s^2.
    spec.average_power = Power{spec.average_power.watts * s * s};
    spec.min_cycle_time = Duration{spec.min_cycle_time.seconds * s};
    spec.energy_per_op = Energy{spec.energy_per_op.joules * s * s * s};
    out.set_spec(spec);
  }
  return out;
}

const ResourceSpec& TechLibrary::spec(ResourceType t) const {
  const int idx = static_cast<int>(t);
  LOPASS_CHECK(idx >= 0 && idx < kNumResourceTypes, "bad resource type");
  return specs_[static_cast<std::size_t>(idx)];
}

Energy TechLibrary::active_energy(ResourceType t, std::uint64_t ops) const {
  const ResourceSpec& s = spec(t);
  return s.energy_per_op * static_cast<double>(ops);
}

Energy TechLibrary::bus_read_energy() const {
  // One 32-bit word + ~8 control/handshake lines swing rail to rail.
  const double lines = 32.0 + 8.0;
  const double e = 0.5 * params_.bus_line_capacitance * params_.vdd * params_.vdd * lines;
  return Energy{e};
}

Energy TechLibrary::bus_write_energy() const {
  // Writes additionally drive the memory write circuitry: the paper's
  // footnote 9 notes reads and writes imply different energies.
  return bus_read_energy() * 1.35;
}

TechLibrary& TechLibrary::set_spec(const ResourceSpec& s) {
  const int idx = static_cast<int>(s.type);
  LOPASS_CHECK(idx >= 0 && idx < kNumResourceTypes, "bad resource type");
  specs_[static_cast<std::size_t>(idx)] = s;
  return *this;
}

TechLibrary& TechLibrary::set_params(const TechParams& p) {
  params_ = p;
  return *this;
}

TechLibrary& TechLibrary::set_idle_power_fraction(double f) {
  LOPASS_CHECK(f >= 0.0 && f <= 1.0, "idle power fraction must be in [0,1]");
  idle_power_fraction_ = f;
  return *this;
}

}  // namespace lopass::power
