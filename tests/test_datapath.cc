#include "asic/datapath.h"

#include <gtest/gtest.h>

#include "asic/synthesis.h"
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
            std::uint64_t ex = 10) {
  const dsl::LoweredProgram p = dsl::Compile(src);
  Built out;
  for (const ir::BasicBlock& b : p.module.function(0).blocks) {
    out.dfgs.push_back(sched::BuildBlockDfg(b));
  }
  for (const sched::BlockDfg& g : out.dfgs) {
    out.schedules.push_back(sched::ListSchedule(g, rs, TechLibrary::Cmos6()));
  }
  for (std::size_t i = 0; i < out.dfgs.size(); ++i) {
    out.blocks.push_back(ScheduledBlock{&out.dfgs[i], &out.schedules[i], ex});
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

TEST(Datapath, UnitsMatchUtilization) {
  Built b = Build("func main(a, c) { return a * c + (a << 1); }", LeanSet());
  const Datapath dp = BuildDatapath(b.blocks, b.util);
  EXPECT_EQ(dp.units.size(), b.util.instance_util.size());
  std::uint64_t ops = 0;
  for (const DatapathUnit& u : dp.units) ops += u.ops;
  std::uint64_t expect = 0;
  for (const InstanceUtil& u : b.util.instance_util) expect += u.ops;
  EXPECT_EQ(ops, expect);
}

TEST(Datapath, ProducerEdgesFollowDataflow) {
  // mul feeds add: the adder-class consumer lists the multiplier as a
  // producer; the mul itself reads the register file.
  Built b = Build("func main(a, c) { return a * c + 1; }", LeanSet());
  const Datapath dp = BuildDatapath(b.blocks, b.util);
  const DatapathUnit* mul = nullptr;
  const DatapathUnit* add = nullptr;
  for (const DatapathUnit& u : dp.units) {
    if (u.type == ResourceType::kMultiplier) mul = &u;
    if (u.type == ResourceType::kAdder) add = &u;
  }
  ASSERT_NE(mul, nullptr);
  ASSERT_NE(add, nullptr);
  EXPECT_EQ(mul->producers, std::vector<int>{-1});  // register file only
  bool add_sees_mul = false;
  for (int p : add->producers) {
    if (p >= 0 && p / 256 == static_cast<int>(ResourceType::kMultiplier)) {
      add_sees_mul = true;
    }
  }
  EXPECT_TRUE(add_sees_mul);
}

TEST(Datapath, FsmStatesCoverAllBlocks) {
  Built b = Build(R"(
    func main(a) {
      var s; var i;
      s = 0;
      for (i = 0; i < a; i = i + 1) { s = s + i * 3; }
      return s;
    })", LeanSet());
  const Datapath dp = BuildDatapath(b.blocks, b.util);
  std::uint32_t steps = 0;
  for (const ScheduledBlock& sb : b.blocks) steps += std::max(sb.schedule->num_steps, 1u);
  EXPECT_EQ(dp.fsm_states, steps + 1);
}

TEST(Datapath, SharedUnitAccumulatesMuxLegs) {
  // One adder serves adds fed by a mul, a shift and the register file:
  // at least three distinct producers -> mux legs > 1.
  Built b = Build("func main(a, c) { return (a * c + 1) + ((a << 2) + 3) + (a + c); }",
                  LeanSet());
  const Datapath dp = BuildDatapath(b.blocks, b.util);
  int max_legs = 0;
  for (const DatapathUnit& u : dp.units) max_legs = std::max(max_legs, u.mux_legs());
  EXPECT_GE(max_legs, 3);
  EXPECT_GT(dp.mux_geq, 0.0);
}

TEST(Datapath, InterconnectCostFoldsIntoSynthesis) {
  Built b = Build("func main(a, c) { return (a * c + 1) + ((a << 2) + 3) + (a + c); }",
                  LeanSet(), 100);
  const Datapath dp = BuildDatapath(b.blocks, b.util);
  const AsicCore plain = Synthesize("p", "lean", b.util, TechLibrary::Cmos6(), 8);
  const AsicCore muxed = Synthesize("m", "lean", b.util, TechLibrary::Cmos6(), 8, &dp);
  EXPECT_GT(muxed.geq, plain.geq);
  EXPECT_GT(muxed.refined_energy, plain.refined_energy);
}

}  // namespace
}  // namespace lopass::asic
