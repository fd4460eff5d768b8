#include "asic/verilog.h"

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
  Datapath dp;
  AsicCore core;
};

Built Build(const std::string& src) {
  sched::ResourceSet rs;
  rs.name = "lean";
  rs.set(ResourceType::kAlu, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMultiplier, 1)
      .set(ResourceType::kDivider, 1)
      .set(ResourceType::kMemoryPort, 1);
  const dsl::LoweredProgram p = dsl::Compile(src);
  Built out;
  for (const ir::BasicBlock& b : p.module.function(0).blocks) {
    out.dfgs.push_back(sched::BuildBlockDfg(b));
  }
  for (const sched::BlockDfg& g : out.dfgs) {
    out.schedules.push_back(sched::ListSchedule(g, rs, TechLibrary::Cmos6()));
  }
  for (std::size_t i = 0; i < out.dfgs.size(); ++i) {
    out.blocks.push_back(ScheduledBlock{&out.dfgs[i], &out.schedules[i], 50});
  }
  out.util = ComputeUtilization(out.blocks, rs, TechLibrary::Cmos6());
  out.dp = BuildDatapath(out.blocks, out.util);
  out.core = Synthesize("fir kernel", "lean", out.util, TechLibrary::Cmos6(), 8, &out.dp);
  return out;
}

TEST(Verilog, StructuralShellIsComplete) {
  Built b = Build(R"(
    array sig[64]; array co[8];
    func main(n) {
      var i; var acc;
      acc = 0;
      for (i = 0; i < n; i = i + 1) {
        acc = acc + sig[i & 63] * co[i & 7];
      }
      return acc >> 4;
    })");
  const std::string v = EmitVerilog(b.core, b.dp);
  // Module shell with the Fig. 2a bus handshake.
  EXPECT_NE(v.find("module core_fir_kernel"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("bus_req"), std::string::npos);
  EXPECT_NE(v.find("bus_gnt"), std::string::npos);
  // One instance per allocated unit.
  EXPECT_NE(v.find("sl_mul32x32 multiplier_0"), std::string::npos);
  EXPECT_NE(v.find("sl_memport memport_0"), std::string::npos);
  // FSM sized for the schedule.
  EXPECT_NE(v.find("Controller FSM"), std::string::npos);
  // Steering commentary for shared units, naming their sources.
  EXPECT_NE(v.find("input steering"), std::string::npos);
  EXPECT_NE(v.find("regfile"), std::string::npos);
}

TEST(Verilog, SanitizesModuleNames) {
  Built b = Build("func main(a) { return a * 2 + 1; }");
  b.core.name = "for@21 weird-name";
  const std::string v = EmitVerilog(b.core, b.dp);
  EXPECT_NE(v.find("module core_for_21_weird_name"), std::string::npos);
}

TEST(Verilog, ExactlyOneModuleShell) {
  Built b = Build("func main(a) { return (a * a) / 3 + (a << 2); }");
  const std::string v = EmitVerilog(b.core, b.dp);
  auto count = [&](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = v.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(count("\nmodule "), 1u);
  EXPECT_EQ(count("endmodule"), 1u);
  // The divider and shifter units both appear as instances.
  EXPECT_EQ(count("sl_divseq32 divider_0"), 1u);
  EXPECT_EQ(count("sl_bshift32 shifter_0"), 1u);
}

}  // namespace
}  // namespace lopass::asic
