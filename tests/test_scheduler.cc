#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/prng.h"
#include "dsl/lower.h"
#include "sched/dfg.h"

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

ResourceSet OneOfEach() {
  ResourceSet rs;
  rs.name = "one-of-each";
  rs.set(ResourceType::kAlu, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMultiplier, 1)
      .set(ResourceType::kDivider, 1)
      .set(ResourceType::kMemoryPort, 1);
  return rs;
}

// Validates the structural invariants of a schedule: precedence (an op
// starts after all predecessors finish) and resource-capacity limits
// (per step, per type, occupied instances <= budget).
void ValidateSchedule(const BlockDfg& g, const BlockSchedule& s, const ResourceSet& rs) {
  ASSERT_EQ(s.ops.size(), g.size());
  for (std::size_t n = 0; n < g.size(); ++n) {
    const ScheduledOp& op = s.ops[n];
    EXPECT_LT(op.step, s.num_steps);
    for (std::size_t pred : g.nodes[n].preds) {
      const ScheduledOp& p = s.ops[pred];
      EXPECT_GE(op.step, p.step + p.latency)
          << "op " << n << " starts before pred " << pred << " finishes";
    }
  }
  // Occupancy per (step, type) never exceeds the budget.
  std::map<std::pair<std::uint32_t, int>, int> busy;
  for (const ScheduledOp& op : s.ops) {
    for (std::uint32_t c = 0; c < op.latency; ++c) {
      busy[{op.step + c, static_cast<int>(op.type)}]++;
    }
  }
  for (const auto& [key, n] : busy) {
    EXPECT_LE(n, rs.count[static_cast<std::size_t>(key.second)])
        << "step " << key.first << " type " << key.second;
  }
}

TEST(ListScheduler, EmptyDfg) {
  const BlockSchedule s = ListSchedule(BlockDfg{}, OneOfEach(), TechLibrary::Cmos6());
  EXPECT_EQ(s.num_steps, 0u);
  EXPECT_TRUE(s.ops.empty());
}

TEST(ListScheduler, SerializesOnSingleResource) {
  // Four independent adds, one adder+one ALU: two per step at best.
  const BlockDfg g = HotDfg(
      "func main(a, b, c, d) { return (a + 1) + 0 * ((b + 1) + (c + 1) + (d + 1)); }", 4);
  ResourceSet rs;
  rs.name = "adder-only";
  rs.set(ResourceType::kAdder, 1).set(ResourceType::kAlu, 1)
    .set(ResourceType::kMultiplier, 1);
  const BlockSchedule s = ListSchedule(g, rs, TechLibrary::Cmos6());
  ValidateSchedule(g, s, rs);
}

TEST(ListScheduler, MoreResourcesNeverLengthenTheSchedule) {
  const char* src = R"(
    array m[32];
    func main(a, b) {
      var t;
      t = m[a & 31] * b + m[b & 31] * a + (a << 2) + (b >> 1)
        + m[(a + b) & 31] * 3 + abs(a - b);
      m[0] = t;
      return t;
    })";
  const BlockDfg g = HotDfg(src, 8);
  ResourceSet small = OneOfEach();
  ResourceSet big = OneOfEach();
  big.set(ResourceType::kAlu, 4)
      .set(ResourceType::kAdder, 4)
      .set(ResourceType::kMultiplier, 3)
      .set(ResourceType::kMemoryPort, 3);
  const BlockSchedule s1 = ListSchedule(g, small, TechLibrary::Cmos6());
  const BlockSchedule s2 = ListSchedule(g, big, TechLibrary::Cmos6());
  ValidateSchedule(g, s1, small);
  ValidateSchedule(g, s2, big);
  EXPECT_LE(s2.num_steps, s1.num_steps);
}

TEST(ListScheduler, MultiCycleLatencyRespected) {
  // A chain of dependent multiplies occupies the 2-cycle multiplier
  // back to back: makespan >= 2 * chain length.
  const BlockDfg g = HotDfg("func main(a) { return a * a * a * a; }", 3);
  const BlockSchedule s = ListSchedule(g, OneOfEach(), TechLibrary::Cmos6());
  const Cycles lat = TechLibrary::Cmos6().spec(ResourceType::kMultiplier).op_latency;
  EXPECT_GE(s.num_steps, 3 * static_cast<std::uint32_t>(lat));
  ValidateSchedule(g, s, OneOfEach());
}

// The Error text of scheduling g under rs; empty if it does not throw.
std::string ScheduleError(const BlockDfg& g, const ResourceSet& rs) {
  try {
    ListSchedule(g, rs, TechLibrary::Cmos6());
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ListScheduler, ThrowsWhenNoResourceForOp) {
  const BlockDfg g = HotDfg("func main(a) { return a * a; }", 1);
  ResourceSet rs;
  rs.name = "no-mult";
  rs.set(ResourceType::kAlu, 1).set(ResourceType::kAdder, 1);
  const std::string what = ScheduleError(g, rs);
  EXPECT_NE(what.find("resource set 'no-mult' provides no resource for mul"), std::string::npos)
      << what;
}

TEST(ListScheduler, UnschedulableBlockNamesItsLowestIndexOp) {
  // The mul comes first in program order, but the div heads a longer
  // chain and so has the higher priority. The check runs over the ops
  // in program order before any is placed, so the mul is named.
  const BlockDfg g = HotDfg("func main(a, b) { return a * b + (((a / b) + 1) + 2); }", 5);
  std::size_t mul = g.size();
  std::size_t div = g.size();
  for (std::size_t n = 0; n < g.size(); ++n) {
    if (g.nodes[n].op == ir::Opcode::kMul) mul = n;
    if (g.nodes[n].op == ir::Opcode::kDiv) div = n;
  }
  ASSERT_LT(mul, div);
  ASSERT_LT(div, g.size());
  ASSERT_GT(g.nodes[div].depth, g.nodes[mul].depth);
  ResourceSet rs;
  rs.name = "no-mul-div";
  rs.set(ResourceType::kAlu, 1).set(ResourceType::kAdder, 1);
  const std::string what = ScheduleError(g, rs);
  EXPECT_NE(what.find("resource set 'no-mul-div' provides no resource for mul"),
            std::string::npos)
      << what;
}

TEST(ListScheduler, ConfigurationErrorsAreNotInvariantViolations) {
  // A set without a needed resource and an op no resource implements
  // are outcomes of the configuration: the text names the op, with no
  // invariant prefix or source location.
  ResourceSet no_mult;
  no_mult.name = "no-mult";
  no_mult.set(ResourceType::kAlu, 1).set(ResourceType::kAdder, 1);
  BlockDfg call;
  call.nodes.resize(1);
  call.nodes[0].op = ir::Opcode::kCall;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {ScheduleError(HotDfg("func main(a) { return a * a; }", 1), no_mult),
       "resource set 'no-mult' provides no resource for mul"},
      {ScheduleError(call, DefaultDesignerSets().back()), "operation not HW-mappable: call"},
  };
  for (const auto& [what, want] : cases) {
    EXPECT_EQ(what, want);
    EXPECT_EQ(what.find("internal invariant"), std::string::npos) << what;
    EXPECT_EQ(what.find("list_scheduler.cc"), std::string::npos) << what;
  }
}

TEST(ListScheduler, PrefersSmallerResource) {
  // A lone add should land on the adder, not the ALU (sorted candidate
  // list, Fig. 4 footnote 13).
  const BlockDfg g = HotDfg("func main(a, b) { return a + b; }", 1);
  const BlockSchedule s = ListSchedule(g, OneOfEach(), TechLibrary::Cmos6());
  ASSERT_EQ(s.ops.size(), 1u);
  EXPECT_EQ(s.ops[0].type, ResourceType::kAdder);
}

TEST(ListScheduler, ComparisonFallsBackWhenNoComparator) {
  // Candidate order is comparator -> adder -> ALU; with no comparator
  // in the set the adder takes it.
  const BlockDfg g = HotDfg("func main(a, b) { return a < b; }", 1);
  const BlockSchedule s = ListSchedule(g, OneOfEach(), TechLibrary::Cmos6());
  ASSERT_EQ(s.ops.size(), 1u);
  EXPECT_EQ(s.ops[0].type, ResourceType::kAdder);
}

// Property sweep: random expression blocks scheduled under various
// budgets always satisfy the structural invariants.
class SchedulerSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerSweep, RandomBlocksAreValid) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  // Build a random big expression.
  std::string expr = "a";
  const char* ops[] = {" + ", " - ", " * ", " & ", " ^ ", " << ", " >> "};
  for (int i = 0; i < 24; ++i) {
    const std::string rhs =
        rng.next_below(3) == 0 ? "m[(a + " + std::to_string(i) + ") & 15]"
                               : "(b + " + std::to_string(i) + ")";
    expr = "(" + expr + ops[rng.next_below(7)] + rhs + ")";
  }
  const std::string src =
      "array m[16];\nfunc main(a, b) { return " + expr + "; }";
  const BlockDfg g = HotDfg(src, 10);
  ASSERT_GT(g.size(), 10u);

  ResourceSet rs = OneOfEach();
  rs.set(ResourceType::kAlu, 1 + static_cast<int>(rng.next_below(3)))
      .set(ResourceType::kAdder, 1 + static_cast<int>(rng.next_below(3)))
      .set(ResourceType::kMemoryPort, 1 + static_cast<int>(rng.next_below(2)));
  const BlockSchedule s = ListSchedule(g, rs, TechLibrary::Cmos6());
  ValidateSchedule(g, s, rs);
  EXPECT_GT(s.num_steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerSweep, ::testing::Range(0, 20));

TEST(ResourceSet, DefaultDesignerSetsAreOrderedBySize) {
  const auto sets = DefaultDesignerSets();
  ASSERT_GE(sets.size(), 3u);
  const TechLibrary& lib = TechLibrary::Cmos6();
  // Gate-equivalents if the set's full budget were instantiated.
  auto budget_geq = [&](const ResourceSet& rs) {
    double geq = 0.0;
    for (int t = 0; t < power::kNumResourceTypes; ++t) {
      const auto type = static_cast<ResourceType>(t);
      geq += rs.of(type) * lib.spec(type).geq;
    }
    return geq;
  };
  for (std::size_t i = 1; i < sets.size(); ++i) {
    EXPECT_GT(budget_geq(sets[i]), budget_geq(sets[i - 1])) << sets[i].name;
  }
}

TEST(ResourceSet, CandidateListsSortedBySize) {
  const TechLibrary& lib = TechLibrary::Cmos6();
  for (ir::Opcode op : {ir::Opcode::kAdd, ir::Opcode::kCmpLt, ir::Opcode::kMul,
                        ir::Opcode::kShl, ir::Opcode::kLoadElem}) {
    const auto cands = CandidateResources(op);
    for (std::size_t i = 1; i < cands.size(); ++i) {
      EXPECT_LE(lib.spec(cands[i - 1]).geq, lib.spec(cands[i]).geq)
          << ir::OpcodeName(op);
    }
  }
}


TEST(Chaining, PacksDependentFastOps) {
  // A pure dependency chain of adds: without chaining one per step;
  // with chaining, two 16ns adder delays fit the 40ns period.
  const BlockDfg g =
      HotDfg("func main(a) { return ((((a + 1) + 2) + 3) + 4) + 5; }", 5);
  SchedulerOptions off;
  SchedulerOptions on;
  on.enable_chaining = true;
  ResourceSet rs;
  rs.name = "adders";
  rs.set(ResourceType::kAdder, 4).set(ResourceType::kAlu, 1);
  const BlockSchedule s_off = ListSchedule(g, rs, TechLibrary::Cmos6(), off);
  const BlockSchedule s_on = ListSchedule(g, rs, TechLibrary::Cmos6(), on);
  EXPECT_EQ(s_off.chained_ops, 0u);
  EXPECT_GT(s_on.chained_ops, 0u);
  EXPECT_LT(s_on.num_steps, s_off.num_steps);
}

TEST(Chaining, NeverChainsThroughMultiCycleOps) {
  const BlockDfg g = HotDfg("func main(a) { return (a * a) + 1; }", 2);
  SchedulerOptions on;
  on.enable_chaining = true;
  const BlockSchedule s = ListSchedule(g, OneOfEach(), TechLibrary::Cmos6(), on);
  // The add must start at or after the multiplier's finish step.
  const ScheduledOp* mul = nullptr;
  const ScheduledOp* add = nullptr;
  for (std::size_t n = 0; n < g.size(); ++n) {
    if (g.nodes[n].op == ir::Opcode::kMul) mul = &s.ops[n];
    if (g.nodes[n].op == ir::Opcode::kAdd) add = &s.ops[n];
  }
  ASSERT_TRUE(mul && add);
  EXPECT_GE(add->step, mul->step + mul->latency);
}

TEST(Chaining, RespectsThePeriodBudget) {
  // Three dependent ALU ops at 22ns each cannot all share a 40ns step;
  // at most two chain.
  const BlockDfg g = HotDfg("func main(a, b) { return ((a & b) | a) ^ b; }", 3);
  SchedulerOptions on;
  on.enable_chaining = true;
  ResourceSet rs;
  rs.name = "alus";
  rs.set(ResourceType::kAlu, 3);
  const BlockSchedule s = ListSchedule(g, rs, TechLibrary::Cmos6(), on);
  EXPECT_GE(s.num_steps, 2u);
  // Precedence still holds step-wise (chained ops share a step).
  for (std::size_t n = 0; n < g.size(); ++n) {
    for (std::size_t p : g.nodes[n].preds) {
      EXPECT_GE(s.ops[n].step, s.ops[p].step);
    }
  }
}

TEST(Chaining, SemanticsOfScheduleUnchanged) {
  // Chaining only compresses steps: the binding/utilization pipeline
  // still sees every op exactly once.
  const BlockDfg g = HotDfg(
      "array m[8];\nfunc main(a) { m[0] = a + 1 + 2 + 3; return m[0]; }", 3);
  SchedulerOptions on;
  on.enable_chaining = true;
  const BlockSchedule s = ListSchedule(g, OneOfEach(), TechLibrary::Cmos6(), on);
  EXPECT_EQ(s.ops.size(), g.size());
}

}  // namespace
}  // namespace lopass::sched
