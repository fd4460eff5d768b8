#include "asic/synthesis.h"

#include <cmath>
#include <gtest/gtest.h>

#include "dsl/lower.h"
#include "sched/list_scheduler.h"

namespace lopass::asic {
namespace {

using power::ResourceType;
using power::TechLibrary;

struct Built {
  std::vector<sched::BlockDfg> dfgs;
  std::vector<sched::BlockSchedule> schedules;
  std::vector<ScheduledBlock> blocks;
  UtilizationResult util;
};

Built Build(const std::string& src, const sched::ResourceSet& rs,
            std::uint64_t ex_times = 100) {
  const dsl::LoweredProgram p = dsl::Compile(src);
  Built out;
  for (const ir::BasicBlock& b : p.module.function(0).blocks) {
    out.dfgs.push_back(sched::BuildBlockDfg(b));
  }
  for (const sched::BlockDfg& g : out.dfgs) {
    out.schedules.push_back(sched::ListSchedule(g, rs, TechLibrary::Cmos6()));
  }
  for (std::size_t i = 0; i < out.dfgs.size(); ++i) {
    out.blocks.push_back(ScheduledBlock{&out.dfgs[i], &out.schedules[i], ex_times});
  }
  out.util = ComputeUtilization(out.blocks, rs, TechLibrary::Cmos6());
  return out;
}

sched::ResourceSet LeanSet() {
  sched::ResourceSet rs;
  rs.name = "lean";
  rs.set(ResourceType::kAlu, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMultiplier, 1)
      .set(ResourceType::kDivider, 1)
      .set(ResourceType::kMemoryPort, 1);
  return rs;
}

TEST(Synthesis, CoreCarriesUtilizationAndArea) {
  Built b = Build("func main(a, b) { return a * b + (a << 2); }", LeanSet());
  const AsicCore core = Synthesize("test", "lean", b.util, TechLibrary::Cmos6(), 8);
  EXPECT_EQ(core.name, "test");
  EXPECT_DOUBLE_EQ(core.utilization, b.util.u_core);
  // Controller + register file make the core bigger than the bare
  // datapath.
  EXPECT_GT(core.geq, b.util.geq);
  EXPECT_GT(core.cells, 0.0);
  EXPECT_GT(core.refined_energy.joules, 0.0);
  EXPECT_GT(core.estimate_energy.joules, 0.0);
}

TEST(Synthesis, ClockPeriodIsSlowedByTheSlowestResource) {
  // A multiplier-free core clocks faster than one with a multiplier.
  Built fast = Build("func main(a, b) { return (a + b) << 1; }", LeanSet());
  Built slow = Build("func main(a, b) { return (a * b) << 1; }", LeanSet());
  const AsicCore cf = Synthesize("f", "lean", fast.util, TechLibrary::Cmos6());
  const AsicCore cs = Synthesize("s", "lean", slow.util, TechLibrary::Cmos6());
  EXPECT_LT(cf.clock_period, cs.clock_period);
  EXPECT_EQ(cs.clock_period,
            TechLibrary::Cmos6().spec(ResourceType::kMultiplier).min_cycle_time);
}

TEST(Synthesis, CyclesAreUpClockEquivalents) {
  Built b = Build("func main(a, b) { return a + b; }", LeanSet(), 1000);
  const AsicCore core = Synthesize("c", "lean", b.util, TechLibrary::Cmos6());
  const double scale = core.clock_period.seconds /
                       TechLibrary::Cmos6().params().clock_period().seconds;
  EXPECT_EQ(core.cycles, static_cast<Cycles>(std::ceil(
                             static_cast<double>(core.control_steps) * scale)));
  // An adder-class core runs faster than the 25 MHz system clock.
  EXPECT_LT(core.cycles, core.control_steps);
}

TEST(Synthesis, DividerCoreIsSlowerThanTheSystemClockWouldSuggest) {
  // The sequential divider's 32-cycle latency dominates: many control
  // steps per executed division.
  Built b = Build("func main(a, b) { return a / (b + 1) / 3 / 5; }", LeanSet(), 10);
  const AsicCore core = Synthesize("d", "lean", b.util, TechLibrary::Cmos6());
  const Cycles div_lat = TechLibrary::Cmos6().spec(ResourceType::kDivider).op_latency;
  EXPECT_GE(core.control_steps, 3 * div_lat * 10);
}

TEST(Synthesis, MoreRegistersMoreAreaAndEnergy) {
  Built b = Build("func main(a, b) { return a * b; }", LeanSet());
  const AsicCore small = Synthesize("s", "lean", b.util, TechLibrary::Cmos6(), 4);
  const AsicCore big = Synthesize("b", "lean", b.util, TechLibrary::Cmos6(), 32);
  EXPECT_GT(big.geq, small.geq);
  EXPECT_GT(big.refined_energy, small.refined_energy);
}

TEST(Synthesis, EstimateFormulaMatchesLine11) {
  // E_R = U_R * sum(P_av * N_cyc * T_cyc) over instances.
  Built b = Build("func main(a, b) { return a * b + a - b; }", LeanSet(), 7);
  const TechLibrary& lib = TechLibrary::Cmos6();
  double sum = 0.0;
  for (const InstanceUtil& u : b.util.instance_util) {
    const power::ResourceSpec& spec = lib.spec(u.type);
    sum += spec.average_power.watts * static_cast<double>(u.active_cycles) *
           spec.min_cycle_time.seconds;
  }
  EXPECT_NEAR(EstimateEnergy(b.util, lib).joules, b.util.u_core * sum, 1e-15);
}

TEST(Synthesis, RefinedEnergyGrowsWithIdleFraction) {
  Built b = Build("func main(a) { return (a * a) + (a / 3); }", LeanSet(), 50);
  power::TechLibrary hot = TechLibrary::Cmos6();
  hot.set_idle_power_fraction(0.9);
  power::TechLibrary cold = TechLibrary::Cmos6();
  cold.set_idle_power_fraction(0.1);
  const AsicCore ch = Synthesize("h", "lean", b.util, hot);
  const AsicCore cc = Synthesize("c", "lean", b.util, cold);
  EXPECT_GT(ch.refined_energy, cc.refined_energy);
}

TEST(Synthesis, CoreGeqAddsTheControllerToTheDatapath) {
  Built b = Build("func main(a) { return a + 1; }", LeanSet());
  const AsicCore core = Synthesize("a", "lean", b.util, TechLibrary::Cmos6(), 8);
  const double reg_geq = TechLibrary::Cmos6().spec(power::ResourceType::kRegister).geq;
  EXPECT_GT(WithControllerGeq(100.0), 100.0);
  EXPECT_DOUBLE_EQ(core.geq, WithControllerGeq(b.util.geq + 8 * reg_geq));
  EXPECT_DOUBLE_EQ(core.cells, core.geq);
}

}  // namespace
}  // namespace lopass::asic
