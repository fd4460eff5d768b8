#include "force_directed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "core/cluster.h"
#include "dsl/lower.h"
#include "sched/asap_alap.h"
#include "sched/list_scheduler.h"

namespace lopass::sched {
namespace {

using power::ResourceType;
using power::TechLibrary;

BlockDfg HotDfg(const std::string& src, std::size_t min_ops) {
  const dsl::LoweredProgram p = dsl::Compile(src);
  BlockDfg best;
  for (const ir::BasicBlock& b : p.module.function(0).blocks) {
    BlockDfg g = BuildBlockDfg(b);
    if (g.size() >= min_ops && g.size() > best.size()) best = std::move(g);
  }
  return best;
}

// The one checker of an FDS schedule: it covers every node, finishes
// within its latency budget, respects precedence (FDS never chains),
// and its reported allocation covers each type's peak concurrency —
// the unit counts bench_ablation_fds costs hardware by.
void ValidateFds(const BlockDfg& g, const FdsSchedule& s,
                 const TechLibrary& lib = TechLibrary::Cmos6()) {
  ASSERT_EQ(s.step.size(), g.size());
  ASSERT_EQ(s.type.size(), g.size());
  std::array<std::vector<int>, power::kNumResourceTypes> occupancy;
  for (auto& o : occupancy) o.assign(s.latency, 0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Cycles lat = lib.spec(s.type[i]).op_latency;
    EXPECT_LE(s.step[i] + lat, s.latency) << i;
    for (std::size_t p : g.nodes[i].preds) {
      const Cycles plat = lib.spec(s.type[p]).op_latency;
      EXPECT_GE(s.step[i], s.step[p] + plat) << i << " before pred " << p;
    }
    std::vector<int>& o = occupancy[static_cast<std::size_t>(s.type[i])];
    for (Cycles c = s.step[i]; c < s.step[i] + lat && c < s.latency; ++c) ++o[c];
  }
  for (int t = 0; t < power::kNumResourceTypes; ++t) {
    const std::vector<int>& o = occupancy[static_cast<std::size_t>(t)];
    const int peak = o.empty() ? 0 : *std::max_element(o.begin(), o.end());
    EXPECT_GE(s.allocation[static_cast<std::size_t>(t)], peak)
        << power::ResourceTypeName(static_cast<ResourceType>(t));
  }
}

// The non-empty blocks of every hardware-candidate cluster of `src`.
std::vector<BlockDfg> CandidateDfgs(const std::string& src, const std::string& entry) {
  const dsl::LoweredProgram p = dsl::Compile(src);
  const core::ClusterChain chain = core::DecomposeIntoClusters(p.module, p.regions, entry);
  std::vector<BlockDfg> dfgs;
  for (const core::Cluster& c : chain.clusters) {
    if (!c.hw_candidate) continue;
    for (const auto& [fn, b] : c.blocks) {
      BlockDfg g = BuildBlockDfg(p.module.function(fn).block(b));
      if (g.size() > 0) dfgs.push_back(std::move(g));
    }
  }
  return dfgs;
}

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(LOPASS_EXAMPLES_DIR) + "/" + name);
  EXPECT_TRUE(in.is_open()) << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ForceDirected, ChainIsForced) {
  // A pure dependency chain at critical-path latency has no freedom.
  const BlockDfg g = HotDfg("func main(a) { return (((a + 1) + 2) + 3) + 4; }", 4);
  const FdsSchedule s = ForceDirectedSchedule(g, TechLibrary::Cmos6());
  ValidateFds(g, s);
  const auto asap = AsapSchedule(g, TechLibrary::Cmos6());
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(s.step[i], asap.step[i]);
  EXPECT_EQ(s.allocation[static_cast<int>(ResourceType::kAdder)], 1);
}

TEST(ForceDirected, BalancesParallelWorkAcrossSlack) {
  // Four independent adds feeding a balanced reduction: the critical
  // path is 3 add-steps, so some adds have slack. With a budget of 4,
  // FDS should spread them onto <= 2 concurrent adders instead of the
  // ASAP peak of 4.
  const BlockDfg g = HotDfg(
      "func main(a, b, c, d) { return ((a + 1) + (b + 2)) + ((c + 3) + (d + 4)); }", 7);
  const auto asap = AsapSchedule(g, TechLibrary::Cmos6());
  const FdsSchedule tight = ForceDirectedSchedule(g, TechLibrary::Cmos6(), asap.makespan);
  const FdsSchedule relaxed =
      ForceDirectedSchedule(g, TechLibrary::Cmos6(), asap.makespan + 2);
  ValidateFds(g, tight);
  ValidateFds(g, relaxed);
  EXPECT_LE(relaxed.allocation[static_cast<int>(ResourceType::kAdder)],
            tight.allocation[static_cast<int>(ResourceType::kAdder)]);
  EXPECT_LE(relaxed.allocation[static_cast<int>(ResourceType::kAdder)], 2);
}

TEST(ForceDirected, RejectsInfeasibleBudget) {
  const BlockDfg g = HotDfg("func main(a) { return a * a * a; }", 2);
  EXPECT_THROW(ForceDirectedSchedule(g, TechLibrary::Cmos6(), 1), Error);
}

TEST(ForceDirected, EmptyDfg) {
  const FdsSchedule s = ForceDirectedSchedule(BlockDfg{}, TechLibrary::Cmos6());
  EXPECT_EQ(s.latency, 0u);
  EXPECT_EQ(s.total_units(), 0);
}

TEST(ForceDirected, AllocationNeverBelowListSchedulerNeeds) {
  // At the same latency the list scheduler achieved with a one-of-each
  // set, FDS's allocation estimate must be a valid datapath: replaying
  // its placements never exceeds its own reported peaks (consistency),
  // and the makespan budget is honored.
  const char* src = R"(
    array m[32];
    func main(a, b) {
      var t;
      t = m[a & 31] * b + m[b & 31] * a + (a << 2) + (b >> 1) + abs(a - b)
        + m[(a + b) & 31] - (a & b);
      m[0] = t;
      return t;
    })";
  const BlockDfg g = HotDfg(src, 10);
  ResourceSet rs;
  rs.name = "one";
  rs.set(ResourceType::kAlu, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMultiplier, 1)
      .set(ResourceType::kMemoryPort, 1);
  const BlockSchedule ls = ListSchedule(g, rs, TechLibrary::Cmos6());
  const FdsSchedule fds = ForceDirectedSchedule(g, TechLibrary::Cmos6(), ls.num_steps);
  ValidateFds(g, fds);
  EXPECT_LE(fds.latency, ls.num_steps);
  // Sanity: FDS used at least one unit of some type.
  EXPECT_GE(fds.total_units(), 1);
}

TEST(ForceDirected, MultiCycleOpsOccupyTheirSpan) {
  // Two independent multiplies (2 cycles each) with budget 4: one
  // multiplier suffices only if they are staggered 2 apart.
  const BlockDfg g =
      HotDfg("func main(a, b) { return 0 * (a * a) + (b * b); }", 3);
  const auto asap = AsapSchedule(g, TechLibrary::Cmos6());
  const FdsSchedule s =
      ForceDirectedSchedule(g, TechLibrary::Cmos6(), asap.makespan + 2);
  ValidateFds(g, s);
  EXPECT_LE(s.allocation[static_cast<int>(ResourceType::kMultiplier)], 2);
}

TEST(ForceDirected, ValidOnEveryCandidateBlockOfTheShippedPrograms) {
  // FDS's real-program coverage (lint runs only the flow's list
  // scheduler): every non-empty block of every hardware candidate of
  // the six applications and the shipped examples, at critical-path
  // latency.
  std::vector<std::pair<std::string, std::vector<BlockDfg>>> programs;
  for (const apps::Application& app : apps::AllApplications()) {
    programs.emplace_back(app.name, CandidateDfgs(app.dsl_source, app.options.entry));
  }
  for (const char* example : {"fir.lp", "matmul.lp"}) {
    programs.emplace_back(example, CandidateDfgs(ReadExample(example), "main"));
  }
  for (const auto& [name, dfgs] : programs) {
    ASSERT_FALSE(dfgs.empty()) << name;
    for (std::size_t i = 0; i < dfgs.size(); ++i) {
      SCOPED_TRACE(name + ", block " + std::to_string(i));
      ValidateFds(dfgs[i], ForceDirectedSchedule(dfgs[i], TechLibrary::Cmos6(), 0));
    }
  }
}

}  // namespace
}  // namespace lopass::sched
