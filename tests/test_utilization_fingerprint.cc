// Pinned Fig. 4 bindings: a 64-bit FNV-1a hash of every OpBinding
// (block, node, type, instance), every InstanceUtil (type, instance,
// active cycles, ops), the per-type instance counts, total_cycles and
// the bit patterns of geq and u_core, for
//   - every hardware-candidate cluster of the six applications, under
//     each DefaultDesignerSets() set, and
//   - generated straight-line blocks of about 3K operations,
// each list-scheduled with chaining off and on, compared against
// tests/data/utilization_fingerprints.txt. Blocks carry distinct
// #ex_times so a binding that weights the wrong block moves the hash.
// A candidate whose schedule throws hashes as a fixed marker. Any change
// to ComputeUtilization that rebinds a single op fails here. A failure
// prints every computed fingerprint in the fixture's format; copy them
// over only after an intentional change to the binding.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/app.h"
#include "asic/utilization.h"
#include "common/error.h"
#include "common/prng.h"
#include "core/cluster.h"
#include "dsl/lower.h"
#include "fingerprint.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"

namespace lopass::asic {
namespace {

using fingerprint::BigBlockSource;
using fingerprint::Fnv;

constexpr std::uint64_t kThrew = ~0ull;

// Schedules `dfgs` under `rs`, binds them with Fig. 4 and folds the
// result (or the fact that scheduling threw) into `h`. Block i runs
// 1 + (7 i mod 13) times.
void AddBinding(Fnv& h, const std::vector<sched::BlockDfg>& dfgs, const sched::ResourceSet& rs,
                bool chaining) {
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  sched::SchedulerOptions options;
  options.enable_chaining = chaining;
  std::vector<sched::BlockSchedule> schedules;
  try {
    for (const sched::BlockDfg& g : dfgs) {
      schedules.push_back(sched::ListSchedule(g, rs, lib, options));
    }
  } catch (const Error&) {
    h.Add(kThrew);
    return;
  }
  std::vector<ScheduledBlock> blocks;
  for (std::size_t i = 0; i < dfgs.size(); ++i) {
    blocks.push_back(ScheduledBlock{&dfgs[i], &schedules[i], 1 + (7 * i) % 13});
  }
  const UtilizationResult r = ComputeUtilization(blocks, rs, lib);
  h.Add(r.bindings.size());
  for (const OpBinding& b : r.bindings) {
    h.Add(b.block);
    h.Add(b.node);
    h.Add(static_cast<std::uint64_t>(b.type));
    h.Add(static_cast<std::uint64_t>(b.instance));
  }
  h.Add(r.instance_util.size());
  for (const InstanceUtil& u : r.instance_util) {
    h.Add(static_cast<std::uint64_t>(u.type));
    h.Add(static_cast<std::uint64_t>(u.instance));
    h.Add(u.active_cycles);
    h.Add(u.ops);
  }
  for (int n : r.instances) h.Add(static_cast<std::uint64_t>(n));
  h.Add(r.total_cycles);
  h.Add(std::bit_cast<std::uint64_t>(r.geq));
  h.Add(std::bit_cast<std::uint64_t>(r.u_core));
}

void ExpectPinned(const std::string& prefix, const std::map<std::string, std::uint64_t>& actual) {
  fingerprint::ExpectPinned("utilization_fingerprints.txt", prefix, actual);
}

TEST(UtilizationFingerprint, SixAppsHwCandidateClustersMatchPinned) {
  const std::vector<sched::ResourceSet> sets = sched::DefaultDesignerSets();
  std::map<std::string, std::uint64_t> actual;
  for (const apps::Application& app : apps::AllApplications()) {
    const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
    const core::ClusterChain chain =
        core::DecomposeIntoClusters(p.module, p.regions, app.options.entry);
    std::size_t candidates = 0;
    for (const core::Cluster& c : chain.clusters) {
      if (!c.hw_candidate) continue;
      ++candidates;
      std::vector<sched::BlockDfg> dfgs;
      for (const auto& [fn, b] : c.blocks) {
        dfgs.push_back(sched::BuildBlockDfg(p.module.function(fn).block(b)));
      }
      for (const sched::ResourceSet& rs : sets) {
        for (const bool chaining : {false, true}) {
          Fnv h;
          AddBinding(h, dfgs, rs, chaining);
          actual["app/" + app.name + "/" + std::to_string(c.id) + "/" + rs.name +
                 (chaining ? "/chain" : "/plain")] = h.value();
        }
      }
    }
    EXPECT_GT(candidates, 0u) << app.name;
  }
  ExpectPinned("app/", actual);
}

TEST(UtilizationFingerprint, GeneratedBigBlocksMatchPinned) {
  const std::vector<sched::ResourceSet> sets = sched::DefaultDesignerSets();
  std::map<std::string, std::uint64_t> actual;
  for (int mix = 0; mix < 3; ++mix) {
    Prng rng(static_cast<std::uint64_t>(mix) + 1000);
    const dsl::LoweredProgram p = dsl::Compile(BigBlockSource(rng, 900, mix));
    std::vector<sched::BlockDfg> big(1);
    for (const ir::BasicBlock& b : p.module.function(0).blocks) {
      sched::BlockDfg g = sched::BuildBlockDfg(b);
      if (g.size() > big[0].size()) big[0] = std::move(g);
    }
    ASSERT_GT(big[0].size(), 2500u);
    for (const sched::ResourceSet& rs : sets) {
      for (const bool chaining : {false, true}) {
        Fnv h;
        AddBinding(h, big, rs, chaining);
        actual["big/" + std::to_string(mix) + "/" + rs.name +
               (chaining ? "/chain" : "/plain")] = h.value();
      }
    }
  }
  ExpectPinned("big/", actual);
}

}  // namespace
}  // namespace lopass::asic
