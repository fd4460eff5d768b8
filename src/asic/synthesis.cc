#include "asic/synthesis.h"

#include <cmath>

#include "common/error.h"
#include "common/fault.h"
#include "common/units.h"

namespace lopass::asic {

// The controller adds area and burns power every cycle.
constexpr double kControllerGeqFraction = 0.10;
constexpr double kControllerEnergyFraction = 0.10;

double WithControllerGeq(double datapath_geq) {
  return datapath_geq * (1.0 + kControllerGeqFraction);
}

Energy EstimateEnergy(const UtilizationResult& util, const power::TechLibrary& lib) {
  fault::MaybeInject("estimate");
  // E_R^core = U_R^core · Σ_rs (P_av^rs · N_cyc^rs · T_cyc^rs)  (line 11),
  // with T_cyc^rs "the minimum cycle time the resource can run at".
  Energy sum;
  for (const InstanceUtil& u : util.instance_util) {
    const power::ResourceSpec& spec = lib.spec(u.type);
    sum += spec.average_power *
           Duration{static_cast<double>(u.active_cycles) * spec.min_cycle_time.seconds};
  }
  return sum * util.u_core;
}

Duration CoreClockPeriod(const std::array<int, power::kNumResourceTypes>& instances,
                         const power::TechLibrary& lib) {
  // The controller's state register chain is never the critical path;
  // the slowest instantiated datapath resource sets the clock.
  Duration period = Duration::from_nanoseconds(8.0);  // controller floor
  for (int t = 0; t < power::kNumResourceTypes; ++t) {
    if (instances[static_cast<std::size_t>(t)] == 0) continue;
    const power::ResourceSpec& spec = lib.spec(static_cast<power::ResourceType>(t));
    if (spec.min_cycle_time > period) period = spec.min_cycle_time;
  }
  return period;
}

AsicCore Synthesize(const std::string& name, const std::string& resource_set,
                    const UtilizationResult& util, const power::TechLibrary& lib,
                    int datapath_registers, const Datapath* datapath) {
  fault::MaybeInject("synth");
  AsicCore core;
  core.name = name;
  core.resource_set = resource_set;
  core.utilization = util.u_core;
  core.control_steps = util.total_cycles;
  core.instances = util.instances;

  const Duration period = CoreClockPeriod(util.instances, lib);
  core.clock_period = period;

  // Express execution time in µP-clock-equivalent cycles so both cores
  // can be summed in one "Exec. Time [cycles]" column.
  const double scale = period.seconds / lib.params().clock_period().seconds;
  core.cycles = static_cast<lopass::Cycles>(
      std::ceil(static_cast<double>(util.total_cycles) * scale));

  const power::ResourceSpec& reg_spec = lib.spec(power::ResourceType::kRegister);
  core.geq = WithControllerGeq(util.geq + datapath_registers * reg_spec.geq);
  core.cells = core.geq;
  core.estimate_energy = EstimateEnergy(util, lib);

  // Gate-level-style refined estimate: per instance, active switching
  // energy for executed ops plus idle energy while clocked but not
  // actively used (Eq. 2), at the core's own clock period, plus
  // controller overhead.
  Energy datapath_energy;
  for (const InstanceUtil& u : util.instance_util) {
    datapath_energy += lib.active_energy(u.type, u.ops);
    const Cycles idle =
        util.total_cycles > u.active_cycles ? util.total_cycles - u.active_cycles : 0;
    const power::ResourceSpec& spec = lib.spec(u.type);
    datapath_energy += spec.average_power *
                       Duration{static_cast<double>(idle) * period.seconds} *
                       lib.idle_power_fraction();
  }
  // The register file is clocked every cycle.
  datapath_energy += reg_spec.average_power * static_cast<double>(datapath_registers) *
                     Duration{static_cast<double>(util.total_cycles) * period.seconds} *
                     lib.idle_power_fraction();
  // Interconnect: steering area plus per-operand mux switching energy.
  if (datapath != nullptr) {
    core.geq += WithControllerGeq(datapath->mux_geq);
    core.cells = core.geq;
    std::uint64_t routed_operands = 0;
    for (const DatapathUnit& u : datapath->units) {
      if (u.mux_legs() > 1) routed_operands += 2 * u.ops;
    }
    datapath_energy += datapath->mux_energy_per_op * static_cast<double>(routed_operands);
  }
  core.refined_energy = datapath_energy * (1.0 + kControllerEnergyFraction);
  CheckEnergySane(core.estimate_energy, "ASIC estimate energy");
  CheckEnergySane(core.refined_energy, "ASIC refined energy");
  return core;
}

}  // namespace lopass::asic
