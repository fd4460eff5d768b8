#include "iss/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "dsl/lower.h"
#include "isa/codegen.h"

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
