#include "power/tech_library.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace lopass::power {
namespace {

TEST(TechLibrary, Cmos6HasAllResources) {
  const TechLibrary& lib = TechLibrary::Cmos6();
  for (int t = 0; t < kNumResourceTypes; ++t) {
    const ResourceSpec& s = lib.spec(static_cast<ResourceType>(t));
    EXPECT_GT(s.geq, 0.0) << ResourceTypeName(s.type);
    EXPECT_GT(s.average_power.watts, 0.0) << ResourceTypeName(s.type);
    EXPECT_GT(s.min_cycle_time.seconds, 0.0) << ResourceTypeName(s.type);
    EXPECT_GE(s.op_latency, 1u) << ResourceTypeName(s.type);
    EXPECT_GT(s.energy_per_op.joules, 0.0) << ResourceTypeName(s.type);
  }
}

TEST(TechLibrary, RelativeMagnitudesMatchDatapathReality) {
  // The algorithms depend on these orderings (e.g. sorted candidate
  // lists prefer the smaller adder over the ALU, Fig. 4 footnote 13).
  const TechLibrary& lib = TechLibrary::Cmos6();
  const auto geq = [&](ResourceType t) { return lib.spec(t).geq; };
  EXPECT_LT(geq(ResourceType::kAdder), geq(ResourceType::kAlu));
  EXPECT_LT(geq(ResourceType::kComparator), geq(ResourceType::kAdder));
  EXPECT_LT(geq(ResourceType::kAlu), geq(ResourceType::kMultiplier));
  EXPECT_LT(geq(ResourceType::kMultiplier), geq(ResourceType::kDivider));
  EXPECT_LT(geq(ResourceType::kRegister), geq(ResourceType::kComparator));

  const auto p = [&](ResourceType t) { return lib.spec(t).average_power; };
  EXPECT_LT(p(ResourceType::kAdder), p(ResourceType::kAlu));
  EXPECT_LT(p(ResourceType::kAlu), p(ResourceType::kMultiplier));
}

TEST(TechLibrary, SequentialDividerIsSlowButFrugal) {
  // The area-efficient radix-2 divider: long latency, below-multiplier
  // power. This is what makes the paper's "trick" trade time for
  // energy.
  const TechLibrary& lib = TechLibrary::Cmos6();
  EXPECT_GE(lib.spec(ResourceType::kDivider).op_latency, 16u);
  EXPECT_LT(lib.spec(ResourceType::kDivider).average_power,
            lib.spec(ResourceType::kMultiplier).average_power);
}

TEST(TechLibrary, ActiveEnergyScalesWithOps) {
  const TechLibrary& lib = TechLibrary::Cmos6();
  EXPECT_DOUBLE_EQ(lib.active_energy(ResourceType::kMultiplier, 10).joules,
                   10.0 * lib.spec(ResourceType::kMultiplier).energy_per_op.joules);
  EXPECT_DOUBLE_EQ(lib.active_energy(ResourceType::kAlu, 0).joules, 0.0);
}

TEST(TechLibrary, BusWriteCostsMoreThanRead) {
  // Footnote 9: reads and writes imply different amounts of energy.
  const TechLibrary& lib = TechLibrary::Cmos6();
  EXPECT_GT(lib.bus_write_energy(), lib.bus_read_energy());
  EXPECT_GT(lib.bus_read_energy().joules, 0.0);
  // A bus transfer is in the nJ range for a 0.8u shared bus.
  EXPECT_GT(lib.bus_read_energy().nanojoules(), 0.1);
  EXPECT_LT(lib.bus_read_energy().nanojoules(), 100.0);
}

TEST(TechLibrary, IdleFractionValidation) {
  TechLibrary lib;
  EXPECT_THROW(lib.set_idle_power_fraction(-0.1), lopass::Error);
  EXPECT_THROW(lib.set_idle_power_fraction(1.5), lopass::Error);
  EXPECT_NO_THROW(lib.set_idle_power_fraction(0.0));
  EXPECT_NO_THROW(lib.set_idle_power_fraction(1.0));
}

TEST(TechLibrary, ClockPeriodFromFrequency) {
  TechParams p;
  p.clock_mhz = 25.0;
  EXPECT_NEAR(p.clock_period().nanoseconds(), 40.0, 1e-9);
}

TEST(TechLibrary, EveryResourceMeetsTheSystemClock) {
  const TechLibrary& lib = TechLibrary::Cmos6();
  for (int t = 0; t < kNumResourceTypes; ++t) {
    EXPECT_LE(lib.spec(static_cast<ResourceType>(t)).min_cycle_time.seconds,
              lib.params().clock_period().seconds)
        << ResourceTypeName(static_cast<ResourceType>(t));
  }
}


TEST(TechLibrary, ConstantFieldScaling) {
  const TechLibrary& base = TechLibrary::Cmos6();
  const TechLibrary half = base.ScaledTo(0.4);  // s = 0.5
  EXPECT_DOUBLE_EQ(half.params().feature_um, 0.4);
  EXPECT_NEAR(half.params().vdd, base.params().vdd * 0.5, 1e-12);
  EXPECT_NEAR(half.params().clock_mhz, base.params().clock_mhz * 2.0, 1e-9);
  for (int t = 0; t < kNumResourceTypes; ++t) {
    const ResourceSpec& a = base.spec(static_cast<ResourceType>(t));
    const ResourceSpec& b = half.spec(static_cast<ResourceType>(t));
    // Gate counts are node independent; energy ~ s^3; delay ~ s;
    // power ~ s^2.
    EXPECT_DOUBLE_EQ(b.geq, a.geq);
    EXPECT_NEAR(b.energy_per_op.joules, a.energy_per_op.joules * 0.125, 1e-18);
    EXPECT_NEAR(b.min_cycle_time.seconds, a.min_cycle_time.seconds * 0.5, 1e-15);
    EXPECT_NEAR(b.average_power.watts, a.average_power.watts * 0.25, 1e-12);
    EXPECT_EQ(b.op_latency, a.op_latency);
  }
  // Scaling up also works and rejects nonsense.
  EXPECT_NO_THROW(base.ScaledTo(1.6));
  EXPECT_THROW(base.ScaledTo(0.0), lopass::Error);
}

TEST(TechLibrary, ResourceTypeNames) {
  EXPECT_STREQ(ResourceTypeName(ResourceType::kAlu), "ALU");
  EXPECT_STREQ(ResourceTypeName(ResourceType::kMultiplier), "multiplier");
  EXPECT_STREQ(ResourceTypeName(ResourceType::kMemoryPort), "memport");
}

}  // namespace
}  // namespace lopass::power
