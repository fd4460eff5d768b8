// Pinned SimResult fingerprints: a 64-bit hash of every field of a
// simulation result (doubles as their bit patterns, per-block costs and
// cluster entry counts included) for
//   - the six applications at scale 1 and 2, initial and partitioned
//     run of the full flow, and
//   - generated programs (tests/program_gen.h) on seeded cache
//     configurations, all-software and under one seeded partition,
// compared against tests/data/sim_fingerprints.txt. Any change to the
// simulator that moves a single cycle, count or energy bit fails here.
// A failure prints every computed fingerprint in the fixture's format;
// copy them over only after an intentional model change.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "apps/app.h"
#include "common/prng.h"
#include "core/partitioner.h"
#include "dsl/lower.h"
#include "isa/codegen.h"
#include "isa/peephole.h"
#include "iss/simulator.h"
#include "program_gen.h"

namespace lopass::iss {
namespace {

class Fnv {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(double d) { Add(std::bit_cast<std::uint64_t>(d)); }
  void Add(Energy e) { Add(e.joules); }
  void Add(const cache::CacheStats& s) {
    for (std::uint64_t v : {s.read_hits, s.read_misses, s.write_hits, s.write_misses,
                            s.writebacks, s.line_fills}) {
      Add(v);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t Fingerprint(const SimResult& r) {
  Fnv h;
  h.Add(static_cast<std::uint64_t>(r.return_value));
  h.Add(r.instr_count);
  h.Add(static_cast<std::uint64_t>(r.up_cycles));
  for (Energy e : {r.energy.up_core, r.energy.icache, r.energy.dcache, r.energy.mem,
                   r.energy.bus, r.energy.asic_core}) {
    h.Add(e);
  }
  h.Add(r.icache_stats);
  h.Add(r.dcache_stats);
  for (std::uint64_t c : r.active_cycles) h.Add(c);
  h.Add(r.up_utilization);
  h.Add(static_cast<std::uint64_t>(r.block_costs.size()));
  for (const auto& fn : r.block_costs) {
    h.Add(static_cast<std::uint64_t>(fn.size()));
    for (const BlockCost& c : fn) {
      h.Add(static_cast<std::uint64_t>(c.cycles));
      h.Add(c.energy);
      h.Add(c.instrs);
      for (std::uint64_t a : c.active_cycles) h.Add(a);
    }
  }
  h.Add(static_cast<std::uint64_t>(r.cluster_entries.size()));
  for (std::uint64_t n : r.cluster_entries) h.Add(n);
  for (std::uint64_t v : {r.transfer_words_in, r.transfer_words_out, r.mem_reads,
                          r.mem_writes}) {
    h.Add(v);
  }
  return h.value();
}

// The pinned fingerprints whose name starts with `prefix`.
std::map<std::string, std::uint64_t> LoadPinned(const std::string& prefix) {
  std::ifstream in(std::string(LOPASS_TEST_DATA_DIR) + "/sim_fingerprints.txt");
  std::map<std::string, std::uint64_t> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream ls(line);
    std::string name, hex;
    ls >> name >> hex;
    pinned[name] = std::stoull(hex, nullptr, 16);
  }
  return pinned;
}

void ExpectPinned(const std::string& prefix, const std::map<std::string, std::uint64_t>& actual) {
  std::ostringstream computed;
  for (const auto& [name, v] : actual) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(v));
    computed << name << ' ' << hex << '\n';
  }
  EXPECT_EQ(LoadPinned(prefix), actual) << "computed fingerprints:\n" << computed.str();
}

TEST(SimFingerprint, SixAppsInitialAndPartitionedRunsMatchPinned) {
  std::map<std::string, std::uint64_t> actual;
  for (const apps::Application& app : apps::AllApplications()) {
    const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
    for (int scale : {1, 2}) {
      const core::PartitionResult r =
          core::Partitioner(p.module, p.regions, app.options).Run(app.workload(scale));
      const std::string name = "app/" + app.name + "/s" + std::to_string(scale);
      actual[name + "/initial"] = Fingerprint(r.initial_run);
      actual[name + "/partitioned"] = Fingerprint(r.partitioned_run);
    }
  }
  ExpectPinned("app/", actual);
}

TEST(SimFingerprint, GeneratedProgramsMatchPinned) {
  std::map<std::string, std::uint64_t> actual;
  for (int seed = 0; seed < 20; ++seed) {
    Prng rng(static_cast<std::uint64_t>(seed) * 0x2545f4914f6cdd1dull + 5);
    const dsl::LoweredProgram p = dsl::Compile(core::GenerateProgram(rng));
    const core::Workload w = core::GeneratedWorkload(rng.next_in(-100, 100));
    isa::SlProgram code = isa::Generate(p.module);
    if (rng.next_below(2) == 1) isa::Peephole(code);

    // Small, seeded caches so misses, evictions and both write
    // policies all occur.
    SystemConfig cfg;
    for (power::CacheGeometry* g : {&cfg.icache, &cfg.dcache}) {
      g->capacity_bytes = 64u << rng.next_below(4);
      g->associativity = 1u << rng.next_below(3);
    }
    if (rng.next_below(2) == 1) cfg.dcache_policy = cache::WritePolicy::kWriteThroughNoAllocate;

    // One seeded partition: every block goes to software, cluster 0 or
    // cluster 1.
    HwPartition part;
    for (std::size_t f = 0; f < p.module.num_functions(); ++f) {
      auto& blocks = part.block_cluster.emplace_back();
      for (std::size_t b = 0; b < p.module.function(static_cast<ir::FunctionId>(f)).blocks.size();
           ++b) {
        blocks.push_back(static_cast<int>(rng.next_below(3)) - 1);
      }
    }
    for (int c = 0; c < 2; ++c) {
      part.clusters.push_back(HwPartition::ClusterIo{
          static_cast<std::uint32_t>(rng.next_below(8)),
          static_cast<std::uint32_t>(rng.next_below(8))});
    }

    for (const bool partitioned : {false, true}) {
      Simulator sim(p.module, code, cfg);
      core::EngineTarget<Simulator> t(sim);
      w.setup(t);
      const SimResult r = sim.Run(w.entry, w.args, partitioned ? part : HwPartition{});
      actual["gen/" + std::to_string(seed) + (partitioned ? "/partitioned" : "/software")] =
          Fingerprint(r);
    }
  }
  ExpectPinned("gen/", actual);
}

}  // namespace
}  // namespace lopass::iss
