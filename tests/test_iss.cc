#include "iss/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "common/fault.h"
#include "common/prng.h"
#include "core/partitioner.h"
#include "dsl/lower.h"
#include "isa/codegen.h"
#include "iss/accounting.h"
#include "program_gen.h"

namespace lopass::iss {
namespace {

struct Prepared {
  dsl::LoweredProgram prog;
  isa::SlProgram code;
};

Prepared Prepare(const std::string& src) {
  Prepared p{dsl::Compile(src), {}};
  p.code = isa::Generate(p.prog.module);
  return p;
}

const char* kLoopy = R"(
var sink;
array data[64];
func main(n) {
  var i; var s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    data[i & 63] = i * 3;
    s = s + data[(i * 7) & 63];
  }
  sink = s;
  return s;
})";

TEST(Simulator, CountsCyclesAndInstructions) {
  Prepared p = Prepare(kLoopy);
  Simulator sim(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> args{100};
  const SimResult r = sim.Run("main", args);
  EXPECT_GT(r.instr_count, 100u);
  // Cycles >= instructions (every instruction takes >= 1 cycle).
  EXPECT_GE(r.up_cycles, r.instr_count);
  EXPECT_GT(r.energy.up_core.joules, 0.0);
  EXPECT_GT(r.energy.icache.joules, 0.0);
  EXPECT_GT(r.energy.dcache.joules, 0.0);
}

TEST(Simulator, MoreWorkMoreCyclesAndEnergy) {
  Prepared p = Prepare(kLoopy);
  Simulator a(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> small{50};
  const SimResult ra = a.Run("main", small);
  Simulator b(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> big{500};
  const SimResult rb = b.Run("main", big);
  EXPECT_GT(rb.up_cycles, ra.up_cycles);
  EXPECT_GT(rb.energy.total(), ra.energy.total());
}

TEST(Simulator, CacheStatsArePopulated) {
  Prepared p = Prepare(kLoopy);
  Simulator sim(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> args{200};
  const SimResult r = sim.Run("main", args);
  EXPECT_EQ(r.icache_stats.accesses(), r.instr_count);
  EXPECT_GT(r.dcache_stats.accesses(), 0u);
  // Loops fit in the i-cache: the miss rate must be tiny.
  EXPECT_LT(r.icache_stats.miss_rate(), 0.05);
}

TEST(Simulator, SmallerICacheMissesMore) {
  Prepared p = Prepare(kLoopy);
  SystemConfig small_cfg;
  small_cfg.icache.capacity_bytes = 64;
  Simulator a(p.prog.module, p.code, small_cfg);
  const std::vector<std::int64_t> args{200};
  const SimResult ra = a.Run("main", args);
  Simulator b(p.prog.module, p.code, SystemConfig{});
  const SimResult rb = b.Run("main", args);
  EXPECT_GE(ra.icache_stats.misses(), rb.icache_stats.misses());
}

TEST(Simulator, BlockCostsSumToTotals) {
  Prepared p = Prepare(kLoopy);
  Simulator sim(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> args{100};
  const SimResult r = sim.Run("main", args);
  Cycles cyc = 0;
  double energy = 0.0;
  std::uint64_t instrs = 0;
  for (const auto& fn_costs : r.block_costs) {
    for (const BlockCost& c : fn_costs) {
      cyc += c.cycles;
      energy += c.energy.joules;
      instrs += c.instrs;
    }
  }
  EXPECT_EQ(cyc, r.up_cycles);
  EXPECT_EQ(instrs, r.instr_count);
  EXPECT_NEAR(energy, r.energy.up_core.joules, 1e-12);
}

TEST(Simulator, UtilizationIsAFraction) {
  Prepared p = Prepare(kLoopy);
  Simulator sim(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> args{100};
  const SimResult r = sim.Run("main", args);
  EXPECT_GT(r.up_utilization, 0.0);
  EXPECT_LT(r.up_utilization, 1.0);
  for (int res = 0; res < kNumUpResources; ++res) {
    EXPECT_LE(r.active_cycles[static_cast<std::size_t>(res)], r.up_cycles);
  }
}

TEST(Simulator, HwPartitionMovesCostOffTheUp) {
  Prepared p = Prepare(kLoopy);
  Simulator base(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> args{300};
  const SimResult r0 = base.Run("main", args);

  // Mark the loop blocks (the hottest ones) as hardware.
  HwPartition part;
  part.block_cluster.resize(p.prog.module.num_functions());
  part.block_cluster[0].assign(p.prog.module.function(0).blocks.size(), -1);
  // Find blocks with the largest instruction counts: the loop.
  std::uint64_t best = 0;
  for (const BlockCost& c : r0.block_costs[0]) best = std::max(best, c.instrs);
  for (std::size_t b = 0; b < r0.block_costs[0].size(); ++b) {
    if (r0.block_costs[0][b].instrs >= best / 2) {
      part.block_cluster[0][b] = 0;
    }
  }
  part.clusters.push_back(HwPartition::ClusterIo{4, 2});

  Simulator sim(p.prog.module, p.code, SystemConfig{});
  const SimResult r1 = sim.Run("main", args, part);
  // Same functional result.
  EXPECT_EQ(r1.return_value, r0.return_value);
  // Software cost shrinks.
  EXPECT_LT(r1.up_cycles, r0.up_cycles);
  EXPECT_LT(r1.instr_count, r0.instr_count);
  EXPECT_LT(r1.energy.up_core, r0.energy.up_core);
  EXPECT_LT(r1.energy.icache, r0.energy.icache);
  // Boundary transfers were accounted.
  EXPECT_GT(r1.cluster_entries[0], 0u);
  EXPECT_EQ(r1.transfer_words_in, r1.cluster_entries[0] * 4);
}

TEST(Simulator, TransferWordsChargeBusAndMemory) {
  Prepared p = Prepare("func main() { return 7; }");
  HwPartition none;
  Simulator a(p.prog.module, p.code, SystemConfig{});
  const SimResult r0 = a.Run("main", {}, none);
  EXPECT_EQ(r0.transfer_words_in, 0u);
  EXPECT_EQ(r0.return_value, 7);
}

TEST(Simulator, UtilizationOfBlocksMatchesManualSum) {
  Prepared p = Prepare(kLoopy);
  Simulator sim(p.prog.module, p.code, SystemConfig{});
  const std::vector<std::int64_t> args{100};
  const SimResult r = sim.Run("main", args);
  std::vector<std::pair<ir::FunctionId, ir::BlockId>> all;
  for (std::size_t b = 0; b < r.block_costs[0].size(); ++b) {
    all.emplace_back(0, static_cast<ir::BlockId>(b));
  }
  EXPECT_NEAR(r.UtilizationOfBlocks(all), r.up_utilization, 1e-12);
}

TEST(Simulator, WorkloadApiMirrorsInterpreter) {
  Prepared p = Prepare(R"(
    var k;
    array v[4];
    func main() { return k + v[2]; })");
  Simulator sim(p.prog.module, p.code, SystemConfig{});
  sim.SetScalar("k", 40);
  const std::vector<std::int64_t> vals{0, 0, 2, 0};
  sim.FillArray("v", vals);
  EXPECT_EQ(sim.Run("main").return_value, 42);
}

TEST(Simulator, InstructionLimitGuard) {
  Prepared p = Prepare("func main() { while (1) { } return 0; }");
  Simulator sim(p.prog.module, p.code, SystemConfig{});
  EXPECT_THROW(sim.Run("main", {}, HwPartition{}, 1000), Error);
}

// The fuel limit belongs to the execution and keeps its message, from
// Execute, from Run and from the flow's initial run.
TEST(Trace, InstructionLimitMessageIsUnchanged) {
  const std::string src = "func main() { while (1) { } return 0; }";
  const std::string message =
      "simulator fuel exhausted after 1000 instructions (non-terminating workload?)";
  auto expect_message = [&](const std::function<void()>& run) {
    try {
      run();
      ADD_FAILURE() << "expected the fuel limit";
    } catch (const Error& e) {
      EXPECT_EQ(e.what(), message);
    }
  };
  Prepared p = Prepare(src);
  expect_message(
      [&] { (void)Simulator(p.prog.module, p.code, SystemConfig{}).Execute("main", {}, 1000); });
  expect_message([&] {
    Simulator(p.prog.module, p.code, SystemConfig{}).Run("main", {}, HwPartition{}, 1000);
  });
  core::PartitionOptions opts;
  opts.max_sim_instrs = 1000;
  expect_message(
      [&] { (void)core::Partitioner(p.prog.module, p.prog.regions, opts).BuildBaseline({}); });
}

// Every SimResult field, doubles bit for bit.
void ExpectSameRun(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.return_value, b.return_value);
  EXPECT_EQ(a.instr_count, b.instr_count);
  EXPECT_EQ(a.up_cycles, b.up_cycles);
  for (const auto& [x, y] : {std::pair{a.energy.up_core, b.energy.up_core},
                             std::pair{a.energy.icache, b.energy.icache},
                             std::pair{a.energy.dcache, b.energy.dcache},
                             std::pair{a.energy.mem, b.energy.mem},
                             std::pair{a.energy.bus, b.energy.bus},
                             std::pair{a.energy.asic_core, b.energy.asic_core}}) {
    EXPECT_EQ(x.joules, y.joules);
  }
  for (const auto& [x, y] : {std::pair{a.icache_stats, b.icache_stats},
                             std::pair{a.dcache_stats, b.dcache_stats}}) {
    EXPECT_EQ(x.read_hits, y.read_hits);
    EXPECT_EQ(x.read_misses, y.read_misses);
    EXPECT_EQ(x.write_hits, y.write_hits);
    EXPECT_EQ(x.write_misses, y.write_misses);
    EXPECT_EQ(x.writebacks, y.writebacks);
    EXPECT_EQ(x.line_fills, y.line_fills);
  }
  EXPECT_EQ(a.active_cycles, b.active_cycles);
  EXPECT_EQ(a.up_utilization, b.up_utilization);
  ASSERT_EQ(a.block_costs.size(), b.block_costs.size());
  for (std::size_t f = 0; f < a.block_costs.size(); ++f) {
    ASSERT_EQ(a.block_costs[f].size(), b.block_costs[f].size());
    for (std::size_t k = 0; k < a.block_costs[f].size(); ++k) {
      const BlockCost& x = a.block_costs[f][k];
      const BlockCost& y = b.block_costs[f][k];
      EXPECT_EQ(x.cycles, y.cycles) << f << "/" << k;
      EXPECT_EQ(x.energy.joules, y.energy.joules) << f << "/" << k;
      EXPECT_EQ(x.instrs, y.instrs) << f << "/" << k;
      EXPECT_EQ(x.active_cycles, y.active_cycles) << f << "/" << k;
      EXPECT_EQ(x.entries, y.entries) << f << "/" << k;
    }
  }
  EXPECT_EQ(a.cluster_entries, b.cluster_entries);
  EXPECT_EQ(a.transfer_words_in, b.transfer_words_in);
  EXPECT_EQ(a.transfer_words_out, b.transfer_words_out);
  EXPECT_EQ(a.mem_reads, b.mem_reads);
  EXPECT_EQ(a.mem_writes, b.mem_writes);
}

SystemConfig SeededConfig(Prng& rng) {
  SystemConfig cfg;
  for (power::CacheGeometry* g : {&cfg.icache, &cfg.dcache}) {
    g->line_bytes = 16u << rng.next_below(3);
    g->associativity = 1u << rng.next_below(4);
    g->capacity_bytes = g->line_bytes * g->associativity << rng.next_below(5);
  }
  if (rng.next_below(2) == 1) cfg.dcache_policy = cache::WritePolicy::kWriteThroughNoAllocate;
  return cfg;
}

// The baseline holds the initial run's trace; pricing it under a
// partition and a configuration equals simulating that partition cold.
TEST(Trace, AccountingTheBaselineTraceEqualsAColdRun) {
  const std::string kCalls = R"(
    var g;
    array a[32]; array b[32];
    func scale(x) {
      var k; var s;
      for (k = 0; k < 4; k = k + 1) { s = s + a[(x + k) & 31] * 3; }
      return s;
    }
    func pick(x) { if ((x & 1) == 1) { g = g + x; return scale(x); } return x >> 1; }
    func main(p) {
      var i; var t; t = p;
      for (i = 0; i < 60; i = i + 1) { t = t + pick(i) - scale(t & 31); a[i & 31] = t & 127; }
      return t + g;
    })";
  for (int seed = 0; seed < 10; ++seed) {
    Prng rng(static_cast<std::uint64_t>(seed) * 0x2545f4914f6cdd1dull + 17);
    const std::string src = seed % 3 == 0 ? kCalls : core::GenerateProgram(rng);
    SCOPED_TRACE(src);
    const dsl::LoweredProgram p = dsl::Compile(src);
    const core::Workload w = core::GeneratedWorkload(rng.next_in(-100, 100));
    core::PartitionOptions opts;
    opts.peephole = rng.next_below(2) == 1;
    opts.initial_config = SeededConfig(rng);
    const std::shared_ptr<const core::AppBaseline> b =
        core::Partitioner(p.module, p.regions, opts).BuildBaseline(w);

    auto cold = [&](const SystemConfig& cfg, const HwPartition& part) {
      Simulator sim(p.module, b->program, cfg);
      core::EngineTarget<Simulator> t(sim);
      w.setup(t);
      return sim.Run(w.entry, w.args, part);
    };
    ExpectSameRun(b->initial_run, cold(opts.initial_config, HwPartition{}));
    for (int k = 0; k < 3; ++k) {
      SCOPED_TRACE("partition " + std::to_string(k));
      HwPartition part;
      for (std::size_t f = 0; f < p.module.num_functions(); ++f) {
        auto& blocks = part.block_cluster.emplace_back();
        for (std::size_t n = p.module.function(static_cast<ir::FunctionId>(f)).blocks.size();
             n > 0; --n) {
          blocks.push_back(static_cast<int>(rng.next_below(3)) - 1);
        }
      }
      part.clusters = {HwPartition::ClusterIo{static_cast<std::uint32_t>(rng.next_below(6)),
                                              static_cast<std::uint32_t>(rng.next_below(6))},
                       HwPartition::ClusterIo{1, 0}};
      const SystemConfig cfg = SeededConfig(rng);
      ExpectSameRun(b->accounting->Account(b->trace, part, cfg), cold(cfg, part));
    }
  }
}

// The trace stays compact where the sweep spends its time: MPG's 4.7 M
// instructions (2.3 M loads/stores) fit in about 0.2 MB, because a load
// or store costs nothing while it keeps its pc's stride.
TEST(Trace, MpgTraceStaysCompact) {
  const apps::Application app = apps::GetApplication("MPG");
  const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
  const std::shared_ptr<const core::AppBaseline> b =
      core::Partitioner(p.module, p.regions, app.options).BuildBaseline(app.workload(1));
  EXPECT_GT(b->initial_run.instr_count, 4'000'000u);
  EXPECT_LE(b->trace.bytes(), 350'000u);
}

// A cached stage never stores a failure: a run that faults throws out
// of the build, so no baseline (and no trace) exists to reuse.
TEST(Trace, AFaultingRunLeavesNoBaseline) {
  for (const char* src : {"var d; func main() { return 7 / d; }",
                          "var i; array a[4]; func main() { return a[i + 4]; }"}) {
    SCOPED_TRACE(src);
    Prepared p = Prepare(src);
    EXPECT_THROW((void)Simulator(p.prog.module, p.code, SystemConfig{}).Execute("main"), Error);
    const core::Partitioner part(p.prog.module, p.prog.regions);
    std::shared_ptr<core::AppBaseline> b;
    EXPECT_THROW(b = part.BuildBaseline({}), Error);
    EXPECT_EQ(b, nullptr);
  }
}

// The line-15 `sim` site fires whether the partition's pricing is new
// (memo miss) or reused (memo hit), with the same all-software fallback.
TEST(Trace, SimSiteFiresOnMemoMissAndMemoHit) {
  const apps::Application app = apps::GetApplication("engine");
  const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
  const core::Partitioner part(p.module, p.regions, app.options);
  const std::shared_ptr<const core::AppBaseline> shared = part.BuildBaseline(app.workload(1));
  auto failed_resim = [&] {
    const fault::JobScope scope("sim:2");
    const core::PartitionResult r = part.Run(*shared);
    EXPECT_EQ(r.diagnostics.back().code, "partition.resim");
    EXPECT_FALSE(r.partitioned());
    ExpectSameRun(r.partitioned_run, shared->initial_run);
  };
  failed_resim();  // miss
  EXPECT_EQ(shared->resims.runs(), 0);
  const core::PartitionResult clean = part.Run(*shared);
  ASSERT_TRUE(clean.partitioned());
  EXPECT_EQ(shared->resims.runs(), 1);
  failed_resim();  // hit
  EXPECT_EQ(shared->resims.runs(), 1);
  EXPECT_EQ(shared->resims.reused(), 0);
  ExpectSameRun(part.Run(*shared).partitioned_run, clean.partitioned_run);
  EXPECT_EQ(shared->resims.reused(), 1);
}


// A load or store whose base register holds INT64_MAX - 2 wraps its
// address instead of overflowing, and the range check rejects it, with
// the generated offset and with offset 0 (where base + 4 would overflow).
TEST(Iss, AddressNearInt64MaxIsOutOfRange) {
  for (const char* src : {"array a[4]; func main(i) { return a[i]; }",
                          "array a[4]; func main(i) { a[i] = 1; return 0; }"}) {
    for (const bool zero_offset : {false, true}) {
      SCOPED_TRACE(std::string(src) + (zero_offset ? ", offset 0" : ""));
      Prepared p = Prepare(src);
      // Make the index register itself the base: the `sll` that scales
      // it by 4 becomes a move.
      bool patched = false;
      for (std::size_t k = 0; k < p.code.code.size(); ++k) {
        isa::SlInstr& mem = p.code.code[k];
        if ((mem.op != isa::SlOp::kLd && mem.op != isa::SlOp::kSt) || mem.rs1 == isa::kZeroReg) {
          continue;
        }
        for (std::size_t j = k; j-- > 0;) {
          isa::SlInstr& scale = p.code.code[j];
          if (scale.op == isa::SlOp::kSll && scale.rd == mem.rs1) {
            scale.op = isa::SlOp::kAdd;
            scale.imm = 0;
            if (zero_offset) mem.imm = 0;
            patched = true;
            break;
          }
        }
      }
      ASSERT_TRUE(patched);
      Simulator sim(p.prog.module, p.code, SystemConfig{});
      const std::vector<std::int64_t> args{std::numeric_limits<std::int64_t>::max() - 2};
      try {
        (void)sim.Run("main", args);
        ADD_FAILURE() << "expected an out-of-range data access";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("data access out of range"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Iss, ElementAccessOutsideItsArrayThrows) {
  // b's neighbours a and c keep b[-1] and b[4] inside data memory, so
  // only the array's own bounds can reject them. An index that scales
  // by 4 onto an element (±2^62, 2^62 + 1) or past data memory (±100000)
  // must still be reported as itself, as the interpreter reports it.
  constexpr std::int64_t kWraps = std::int64_t{1} << 62;
  const char* kLoad = "array a[4]; array b[4]; array c[4]; func main(i) { return b[i]; }";
  const char* kStore =
      "array a[4]; array b[4]; array c[4]; func main(i) { b[i] = 1; return 0; }";
  for (const std::int64_t index : {std::int64_t{4}, std::int64_t{-1}, kWraps, -kWraps,
                                   kWraps + 1, std::int64_t{100000}, std::int64_t{-100000}}) {
    for (const bool store : {false, true}) {
      for (const bool constant : {false, true}) {
        SCOPED_TRACE(std::to_string(index) + (store ? " store" : " load") +
                     (constant ? ", constant index" : ""));
        std::string src = store ? kStore : kLoad;
        if (constant) {
          src.replace(src.find("b[i]"), 4, "b[" + std::to_string(index) + "]");
        }
        Prepared p = Prepare(src);
        if (constant) {
          const bool constant_access =
              std::any_of(p.code.code.begin(), p.code.code.end(), [](const isa::SlInstr& in) {
                return (in.op == isa::SlOp::kLd || in.op == isa::SlOp::kSt) &&
                       in.rs1 == isa::kZeroReg && in.array != ir::kNoSymbol;
              });
          ASSERT_TRUE(constant_access) << "the index did not reach codegen as a constant";
        }
        Simulator sim(p.prog.module, p.code, SystemConfig{});
        const std::vector<std::int64_t> args{index};
        const std::string expected = std::string("array index out of range ") +
                                     (store ? "on store to 'b' (" : "on load of 'b' (") +
                                     std::to_string(index) + " of 4)";
        try {
          (void)sim.Run("main", args);
          ADD_FAILURE() << "expected " << expected;
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
        }
      }
    }
  }
}

TEST(TiwariModel, ClassEnergiesAreOrdered) {
  const TiwariModel& m = TiwariModel::Sparclite();
  // Divide costs the most; nop the least.
  EXPECT_GT(m.base_energy(isa::InstrClass::kDiv), m.base_energy(isa::InstrClass::kMul));
  EXPECT_GT(m.base_energy(isa::InstrClass::kMul), m.base_energy(isa::InstrClass::kAlu));
  EXPECT_LT(m.base_energy(isa::InstrClass::kNop), m.base_energy(isa::InstrClass::kAlu));
  // Circuit-state overhead is larger between different classes.
  EXPECT_GT(m.overhead(isa::InstrClass::kAlu, isa::InstrClass::kMul),
            m.overhead(isa::InstrClass::kAlu, isa::InstrClass::kAlu));
}


TEST(TiwariModel, UniformEnergyScaling) {
  const TiwariModel& base = TiwariModel::Sparclite();
  const TiwariModel scaled = base.ScaledBy(0.125);
  for (auto c : {isa::InstrClass::kAlu, isa::InstrClass::kMul, isa::InstrClass::kDiv,
                 isa::InstrClass::kLoad, isa::InstrClass::kNop}) {
    EXPECT_NEAR(scaled.base_energy(c).joules, base.base_energy(c).joules * 0.125,
                1e-18);
  }
  EXPECT_NEAR(scaled.stall_energy_per_cycle().joules,
              base.stall_energy_per_cycle().joules * 0.125, 1e-18);
  EXPECT_NEAR(
      scaled.overhead(isa::InstrClass::kAlu, isa::InstrClass::kMul).joules,
      base.overhead(isa::InstrClass::kAlu, isa::InstrClass::kMul).joules * 0.125,
      1e-18);
  // Resource-activation masks are untouched.
  EXPECT_EQ(scaled.active_resources(isa::InstrClass::kMul),
            base.active_resources(isa::InstrClass::kMul));
}

TEST(TiwariModel, PairOverheadMatrixIsAsymmetricallyConfigurable) {
  TiwariModel m;
  m.set_pair_overhead(isa::InstrClass::kAlu, isa::InstrClass::kShift,
                      Energy::from_nanojoules(9.0));
  EXPECT_NEAR(m.overhead(isa::InstrClass::kAlu, isa::InstrClass::kShift).nanojoules(),
              9.0, 1e-12);
  // Set symmetrically.
  EXPECT_NEAR(m.overhead(isa::InstrClass::kShift, isa::InstrClass::kAlu).nanojoules(),
              9.0, 1e-12);
  // Specific pairs of the default model differ from the generic value.
  const TiwariModel& d = TiwariModel::Sparclite();
  EXPECT_GT(d.overhead(isa::InstrClass::kMul, isa::InstrClass::kDiv),
            d.overhead(isa::InstrClass::kLoad, isa::InstrClass::kStore));
}

TEST(TiwariModel, ActiveResourceMasks) {
  const TiwariModel& m = TiwariModel::Sparclite();
  const std::uint32_t mul_mask = m.active_resources(isa::InstrClass::kMul);
  EXPECT_TRUE(mul_mask & (1u << static_cast<int>(UpResource::kMultiplier)));
  EXPECT_FALSE(mul_mask & (1u << static_cast<int>(UpResource::kDivider)));
  const std::uint32_t ld_mask = m.active_resources(isa::InstrClass::kLoad);
  EXPECT_TRUE(ld_mask & (1u << static_cast<int>(UpResource::kMemPort)));
}

}  // namespace
}  // namespace lopass::iss
