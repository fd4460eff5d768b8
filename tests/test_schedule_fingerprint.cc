// Pinned list schedules: a 64-bit FNV-1a hash of every op's (node,
// step, type, latency) plus num_steps and chained_ops, for
//   - every block of every hardware-candidate cluster of the six
//     applications, under each DefaultDesignerSets() set,
//   - seeded random DFGs with multi-cycle multiplies and divides on
//     1-3-instance sets, and
//   - generated straight-line blocks of about 3K operations,
// each with chaining off and on and with depth and mobility priority,
// compared against tests/data/schedule_fingerprints.txt. A schedule
// that throws hashes as a fixed marker, so a case that starts or stops
// throwing fails too. Any change to the list scheduler that moves a
// single op fails here. A failure prints every computed fingerprint in
// the fixture's format; copy them over only after an intentional
// change to the schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "common/prng.h"
#include "core/cluster.h"
#include "dsl/lower.h"
#include "fingerprint.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"

namespace lopass::sched {
namespace {

using power::ResourceType;

using fingerprint::BigBlockSource;
using fingerprint::Fnv;

constexpr std::uint64_t kThrew = ~0ull;

struct Mode {
  const char* name;
  SchedulerOptions options;
};

std::vector<Mode> AllModes() {
  std::vector<Mode> modes;
  for (const bool chaining : {false, true}) {
    for (const auto priority :
         {SchedulerOptions::Priority::kDepth, SchedulerOptions::Priority::kMobility}) {
      SchedulerOptions o;
      o.enable_chaining = chaining;
      o.priority = priority;
      const bool depth = priority == SchedulerOptions::Priority::kDepth;
      modes.push_back({chaining ? (depth ? "depth+chain" : "mobility+chain")
                                : (depth ? "depth" : "mobility"),
                       o});
    }
  }
  return modes;
}

// Schedules `dfg` and folds the result (or the fact that it threw)
// into `h`.
void AddSchedule(Fnv& h, const BlockDfg& dfg, const ResourceSet& rs,
                 const SchedulerOptions& options) {
  BlockSchedule s;
  try {
    s = ListSchedule(dfg, rs, power::TechLibrary::Cmos6(), options);
  } catch (const Error&) {
    h.Add(kThrew);
    return;
  }
  h.Add(s.ops.size());
  for (const ScheduledOp& op : s.ops) {
    h.Add(op.node);
    h.Add(op.step);
    h.Add(static_cast<std::uint64_t>(op.type));
    h.Add(static_cast<std::uint64_t>(op.latency));
  }
  h.Add(s.num_steps);
  h.Add(s.chained_ops);
}

void ExpectPinned(const std::string& prefix, const std::map<std::string, std::uint64_t>& actual) {
  fingerprint::ExpectPinned("schedule_fingerprints.txt", prefix, actual);
}

// Seeded random DFG: nodes in program order, every edge pointing
// forward, depth as BuildBlockDfg computes it.
BlockDfg RandomDfg(Prng& rng) {
  static constexpr ir::Opcode kOps[] = {
      ir::Opcode::kAdd,   ir::Opcode::kSub,      ir::Opcode::kAnd,       ir::Opcode::kXor,
      ir::Opcode::kMin,   ir::Opcode::kCmpLt,    ir::Opcode::kCmpEq,     ir::Opcode::kShl,
      ir::Opcode::kSar,   ir::Opcode::kMul,      ir::Opcode::kDiv,       ir::Opcode::kMod,
      ir::Opcode::kLoadElem, ir::Opcode::kStoreElem};
  BlockDfg g;
  g.nodes.resize(1 + rng.next_below(600));
  for (std::size_t k = 0; k < g.size(); ++k) {
    g.nodes[k].instr_index = k;
    g.nodes[k].op = kOps[rng.next_below(std::size(kOps))];
    const std::uint64_t fan_in = k == 0 ? 0 : rng.next_below(4);
    for (std::uint64_t e = 0; e < fan_in; ++e) {
      // Mostly recent producers, so long chains form.
      const std::size_t window = std::min<std::size_t>(k, rng.next_below(2) == 0 ? 8 : k);
      const std::size_t p = k - 1 - rng.next_below(window);
      auto& preds = g.nodes[k].preds;
      if (std::find(preds.begin(), preds.end(), p) != preds.end()) continue;
      preds.push_back(p);
      g.nodes[p].succs.push_back(k);
    }
  }
  for (std::size_t k = g.size(); k-- > 0;) {
    int d = 0;
    for (std::size_t s : g.nodes[k].succs) d = std::max(d, g.nodes[s].depth + 1);
    g.nodes[k].depth = d;
  }
  return g;
}

TEST(ScheduleFingerprint, SixAppsHwCandidateBlocksMatchPinned) {
  const std::vector<ResourceSet> sets = DefaultDesignerSets();
  std::map<std::string, std::uint64_t> actual;
  for (const apps::Application& app : apps::AllApplications()) {
    const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
    const core::ClusterChain chain =
        core::DecomposeIntoClusters(p.module, p.regions, app.options.entry);
    std::vector<BlockDfg> dfgs;
    for (const core::Cluster& c : chain.clusters) {
      if (!c.hw_candidate) continue;
      for (const auto& [fn, b] : c.blocks) {
        dfgs.push_back(BuildBlockDfg(p.module.function(fn).block(b)));
      }
    }
    ASSERT_FALSE(dfgs.empty()) << app.name;
    for (const ResourceSet& rs : sets) {
      for (const Mode& m : AllModes()) {
        Fnv h;
        h.Add(dfgs.size());
        for (const BlockDfg& g : dfgs) AddSchedule(h, g, rs, m.options);
        actual["app/" + app.name + "/" + rs.name + "/" + m.name] = h.value();
      }
    }
  }
  ExpectPinned("app/", actual);
}

TEST(ScheduleFingerprint, RandomDfgsMatchPinned) {
  std::map<std::string, std::uint64_t> actual;
  for (int seed = 0; seed < 120; ++seed) {
    Prng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull + 11);
    const BlockDfg g = RandomDfg(rng);
    ResourceSet rs;
    rs.name = "random";
    for (ResourceType t : {ResourceType::kAlu, ResourceType::kAdder, ResourceType::kComparator,
                           ResourceType::kShifter, ResourceType::kMultiplier,
                           ResourceType::kDivider, ResourceType::kMemoryPort}) {
      rs.set(t, 1 + static_cast<int>(rng.next_below(3)));
    }
    // Sometimes drop the comparator or the adder: comparisons and adds
    // then fall back to the next candidate type.
    if (rng.next_below(3) == 0) rs.set(ResourceType::kComparator, 0);
    if (rng.next_below(3) == 0) rs.set(ResourceType::kAdder, 0);
    Fnv h;
    for (const Mode& m : AllModes()) AddSchedule(h, g, rs, m.options);
    actual["rand/" + std::to_string(seed)] = h.value();
  }
  ExpectPinned("rand/", actual);
}

TEST(ScheduleFingerprint, GeneratedBigBlocksMatchPinned) {
  const std::vector<ResourceSet> sets = DefaultDesignerSets();
  std::map<std::string, std::uint64_t> actual;
  for (int mix = 0; mix < 3; ++mix) {
    Prng rng(static_cast<std::uint64_t>(mix) + 1000);
    const dsl::LoweredProgram p = dsl::Compile(BigBlockSource(rng, 900, mix));
    BlockDfg big;
    for (const ir::BasicBlock& b : p.module.function(0).blocks) {
      BlockDfg g = BuildBlockDfg(b);
      if (g.size() > big.size()) big = std::move(g);
    }
    ASSERT_GT(big.size(), 2500u);
    for (const ResourceSet& rs : sets) {
      for (const Mode& m : AllModes()) {
        Fnv h;
        AddSchedule(h, big, rs, m.options);
        actual["big/" + std::to_string(mix) + "/" + rs.name + "/" + m.name] = h.value();
      }
    }
  }
  ExpectPinned("big/", actual);
}

}  // namespace
}  // namespace lopass::sched
