// Pinned SimResult fingerprints: a 64-bit hash of every field of a
// simulation result (doubles as their bit patterns, per-block costs and
// cluster entry counts included) for
//   - the six applications at scale 1 and 2, initial and partitioned
//     run of the full flow,
//   - the six applications at scale 1 and 4, initial run and the
//     line-15 partition of every feasible candidate cluster,
//   - generated programs (tests/program_gen.h) on seeded cache
//     configurations, all-software and under one seeded partition, and
//   - generated programs with and without calls under three seeded
//     partitions on seeded caches of 16- to 64-byte lines, 1 to 8 ways
//     and both write policies,
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
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>

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

// Fingerprint plus every block's entry count (BlockCost::entries, the
// profiled #ex_times).
std::uint64_t FingerprintWithEntries(const SimResult& r) {
  Fnv h;
  h.Add(Fingerprint(r));
  for (const auto& fn : r.block_costs) {
    for (const BlockCost& c : fn) h.Add(c.entries);
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

// Runs `w` on a fresh simulator of `code` under `partition`.
SimResult RunCold(const ir::Module& module, const isa::SlProgram& code, const SystemConfig& cfg,
                  const core::Workload& w, const HwPartition& partition,
                  std::uint64_t max_instrs = 2'000'000'000) {
  Simulator sim(module, code, cfg);
  if (w.setup) {
    core::EngineTarget<Simulator> t(sim);
    w.setup(t);
  }
  return sim.Run(w.entry, w.args, partition, max_instrs);
}

// Every block of `module` in software.
HwPartition AllSoftware(const ir::Module& module) {
  HwPartition part;
  for (std::size_t f = 0; f < module.num_functions(); ++f) {
    part.block_cluster.emplace_back(
        module.function(static_cast<ir::FunctionId>(f)).blocks.size(), -1);
  }
  return part;
}

// The line-15 partition of each cluster that some resource set found
// feasible in the flow's first round: the cluster alone on the ASIC
// core, with the transfer words line 15 charges for it.
TEST(SimFingerprint, SixAppsEveryFeasibleCandidatePartitionMatchesPinned) {
  std::map<std::string, std::uint64_t> actual;
  for (const apps::Application& app : apps::AllApplications()) {
    const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
    const core::Partitioner partitioner(p.module, p.regions, app.options);
    const SystemConfig& cfg = app.options.partitioned_config.value_or(app.options.initial_config);
    for (int scale : {1, 4}) {
      const core::Workload w = app.workload(scale);
      const std::shared_ptr<const core::AppBaseline> b = partitioner.BuildBaseline(w);
      const std::string name = "cand/" + app.name + "/s" + std::to_string(scale);
      actual[name + "/initial"] = FingerprintWithEntries(b->initial_run);
      std::set<int> feasible;
      for (const core::ClusterEvaluation& ev : partitioner.Run(*b).evaluations) {
        if (ev.feasible) feasible.insert(ev.cluster_id);
      }
      for (const int id : feasible) {
        const core::Cluster& c = b->chain.clusters[static_cast<std::size_t>(id)];
        const core::Transfers t = b->traffic->Compute(
            c, app.options.use_synergy ? std::unordered_set<int>{id} : std::unordered_set<int>{});
        HwPartition part = AllSoftware(p.module);
        for (const auto& [fn, block] : c.blocks) {
          part.block_cluster[static_cast<std::size_t>(fn)][static_cast<std::size_t>(block)] = 0;
        }
        part.clusters.push_back(
            HwPartition::ClusterIo{static_cast<std::uint32_t>(t.up_to_mem_words),
                                   static_cast<std::uint32_t>(t.asic_to_mem_words)});
        actual[name + "/c" + std::to_string(id)] = FingerprintWithEntries(
            RunCold(p.module, b->program, cfg, w, part, app.options.max_sim_instrs));
      }
    }
  }
  ExpectPinned("cand/", actual);
}

// A seeded program whose main loop calls two or three helpers, one of
// which calls the others (never recursively), over the arrays and
// globals of GenerateProgram's programs.
std::string GenerateCallProgram(Prng& rng) {
  std::ostringstream os;
  os << "var g0; var g1;\n";
  os << "array a[32]; array b[32];\n";
  os << "func h0(x) {\n  var k; var s;\n  s = x;\n"
     << "  for (k = 0; k < " << rng.next_in(2, 9) << "; k = k + 1) {\n"
     << "    s = s + a[(k + x) & 31] * " << rng.next_in(1, 7) << ";\n  }\n"
     << "  return s & 4095;\n}\n";
  os << "func h1(x, y) {\n"
     << "  if ((x & " << rng.next_in(1, 3) << ") == 1) {\n"
     << "    b[x & 31] = y;\n    g0 = g0 + (y >> 2);\n  } else {\n"
     << "    g1 = g1 ^ x;\n  }\n"
     << "  return x - y / " << rng.next_in(2, 11) << ";\n}\n";
  os << "func h2(x) {\n  return h0(x & 31) + h1(x, g0);\n}\n";
  os << "func main(p) {\n  var i; var t;\n  t = p;\n";
  os << "  for (i = 0; i < " << rng.next_in(20, 120) << "; i = i + 1) {\n";
  const int calls = 2 + static_cast<int>(rng.next_below(2));
  for (int c = 0; c < calls; ++c) {
    switch (rng.next_below(3)) {
      case 0: os << "    t = t + h0(i);\n"; break;
      case 1: os << "    if ((t & 7) == 3) { t = t - h1(i, t); }\n"; break;
      default: os << "    g1 = g1 + h2(t & 255);\n"; break;
    }
  }
  os << "    a[i & 31] = t & 255;\n  }\n";
  os << "  return t + g0 - g1;\n}\n";
  return os.str();
}

TEST(SimFingerprint, SeededProgramsUnderSeededPartitionsMatchPinned) {
  std::map<std::string, std::uint64_t> actual;
  bool saw_call_in_hw = false, saw_final_ret_in_hw = false, saw_write_through = false;
  std::set<std::uint32_t> ways, lines;
  for (int seed = 0; seed < 24; ++seed) {
    Prng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull + 11);
    const bool calls = seed % 2 == 1;
    const dsl::LoweredProgram p =
        dsl::Compile(calls ? GenerateCallProgram(rng) : core::GenerateProgram(rng));
    const core::Workload w = core::GeneratedWorkload(rng.next_in(-100, 100));
    isa::SlProgram code = isa::Generate(p.module);
    if (rng.next_below(2) == 1) isa::Peephole(code);
    const ir::FunctionId main_fn = *p.module.FindFunction("main");

    // Partition 0 spreads the blocks over software and two clusters;
    // partition 1 puts every block that calls on cluster 0; partition 2
    // puts the block of the program's final ret on cluster 1.
    std::vector<HwPartition> parts(3, AllSoftware(p.module));
    for (HwPartition& part : parts) {
      for (std::uint32_t c = 0; c < 2; ++c) {
        part.clusters.push_back(HwPartition::ClusterIo{
            static_cast<std::uint32_t>(rng.next_below(8)),
            static_cast<std::uint32_t>(rng.next_below(8))});
      }
      for (auto& blocks : part.block_cluster) {
        for (int& cluster : blocks) cluster = static_cast<int>(rng.next_below(3)) - 1;
      }
    }
    for (const isa::SlInstr& in : code.code) {
      const auto f = static_cast<std::size_t>(in.fn);
      const auto b = static_cast<std::size_t>(in.block);
      if (in.op == isa::SlOp::kCall) {
        parts[1].block_cluster[f][b] = 0;
        saw_call_in_hw = true;
      }
      if (in.op == isa::SlOp::kRet && in.fn == main_fn) {
        parts[2].block_cluster[f][b] = 1;
        saw_final_ret_in_hw = true;
      }
    }

    for (int k = 0; k < 2; ++k) {
      SystemConfig cfg;
      for (power::CacheGeometry* g : {&cfg.icache, &cfg.dcache}) {
        g->line_bytes = 16u << rng.next_below(3);
        g->associativity = 1u << rng.next_below(4);
        g->capacity_bytes = g->line_bytes * g->associativity << rng.next_below(4);
        ways.insert(g->associativity);
        lines.insert(g->line_bytes);
      }
      if (rng.next_below(2) == 1) {
        cfg.dcache_policy = cache::WritePolicy::kWriteThroughNoAllocate;
        saw_write_through = true;
      }
      const std::string name = "seeded/" + std::to_string(seed) + "/cfg" + std::to_string(k);
      actual[name + "/software"] =
          FingerprintWithEntries(RunCold(p.module, code, cfg, w, HwPartition{}));
      for (std::size_t i = 0; i < parts.size(); ++i) {
        actual[name + "/p" + std::to_string(i)] =
            FingerprintWithEntries(RunCold(p.module, code, cfg, w, parts[i]));
      }
    }
  }
  EXPECT_TRUE(saw_call_in_hw && saw_final_ret_in_hw && saw_write_through);
  EXPECT_EQ(ways, (std::set<std::uint32_t>{1, 2, 4, 8}));
  EXPECT_EQ(lines, (std::set<std::uint32_t>{16, 32, 64}));
  ExpectPinned("seeded/", actual);
}

}  // namespace
}  // namespace lopass::iss
