#include "isa/peephole.h"

#include <gtest/gtest.h>

#include "apps/app.h"
#include "common/prng.h"
#include "dsl/lower.h"
#include "interp/interpreter.h"
#include "isa/codegen.h"
#include "iss/simulator.h"

namespace lopass::isa {
namespace {

// Runs src through the ISS with and without peephole; both must agree
// with the interpreter, and the peepholed program must not be longer.
void ExpectEquivalentAndNoLonger(const std::string& src,
                                 std::vector<std::int64_t> args = {}) {
  const dsl::LoweredProgram p = dsl::Compile(src);
  interp::Interpreter it(p.module);
  const std::int64_t want = it.Run("main", args).return_value;

  SlProgram plain = Generate(p.module);
  SlProgram opt = Generate(p.module);
  const PeepholeStats stats = Peephole(opt);
  EXPECT_LE(opt.code.size(), plain.code.size());
  (void)stats;

  iss::Simulator sim_plain(p.module, plain, iss::SystemConfig{});
  iss::Simulator sim_opt(p.module, opt, iss::SystemConfig{});
  const iss::SimResult rp = sim_plain.Run("main", args);
  const iss::SimResult ro = sim_opt.Run("main", args);
  EXPECT_EQ(rp.return_value, want);
  EXPECT_EQ(ro.return_value, want);
  // Fewer or equal instructions executed.
  EXPECT_LE(ro.instr_count, rp.instr_count);
}

TEST(Peephole, RemovesStoreLoadPairs) {
  // writevar x; readvar x back-to-back becomes st;ld on the same
  // address — the classic peephole win for memory-resident variables.
  const dsl::LoweredProgram p = dsl::Compile(R"(
    var x;
    func main(a) {
      x = a * 3;
      return x + 1;
    })");
  SlProgram prog = Generate(p.module);
  const std::size_t before = prog.code.size();
  const PeepholeStats stats = Peephole(prog);
  EXPECT_GT(stats.store_load, 0u);
  EXPECT_LE(prog.code.size(), before);
}

TEST(Peephole, StoreLoadFusionKeepsTheArrayBoundsCheck) {
  // a[-1] is g's word: the store to g and the load of a[-1] share an
  // address, but only the load is an element access that must fail.
  const dsl::LoweredProgram p =
      dsl::Compile("var g; array a[4]; func main() { g = 5; return a[-1]; }");
  SlProgram prog = Generate(p.module);
  Peephole(prog);
  iss::Simulator sim(p.module, prog, iss::SystemConfig{});
  try {
    (void)sim.Run("main");
    ADD_FAILURE() << "expected the load of a[-1] to fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("array index out of range on load of 'a' (-1 of 4)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Peephole, ProgramStillLinksAfterRemoval) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    var x;
    func helper(v) { x = v; return x * 2; }
    func main(a) {
      var s; var i;
      s = 0;
      for (i = 0; i < a; i = i + 1) { s = s + helper(i); }
      return s;
    })");
  SlProgram prog = Generate(p.module);
  Peephole(prog);
  // Every target is in range and function ranges are consistent.
  for (const SlInstr& in : prog.code) {
    if (in.op == SlOp::kBeqz || in.op == SlOp::kBnez || in.op == SlOp::kJ ||
        in.op == SlOp::kCall) {
      EXPECT_GE(in.target, 0);
      EXPECT_LT(static_cast<std::size_t>(in.target), prog.code.size());
    }
  }
  std::size_t covered = 0;
  for (const FuncInfo& f : prog.functions) {
    EXPECT_LE(f.entry, f.end);
    covered += f.end - f.entry;
  }
  EXPECT_EQ(covered, prog.code.size());
}

TEST(Peephole, Equivalence) {
  ExpectEquivalentAndNoLonger(R"(
    var x; var y;
    func main(a, b) {
      x = a + b;
      y = x * 2;
      x = y - a;
      return x + y;
    })", {12, -7});
  ExpectEquivalentAndNoLonger(R"(
    array m[32];
    func main(n) {
      var i; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        m[i & 31] = s;
        s = m[i & 31] + i;
      }
      return s;
    })", {77});
}

class PeepholeRandom : public ::testing::TestWithParam<int> {};

TEST_P(PeepholeRandom, RandomProgramsStayEquivalent) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 2);
  std::ostringstream os;
  os << "var g;\narray m[8];\nfunc main(a, b) {\n  var t; var i;\n";
  os << "  t = a;\n";
  os << "  for (i = 0; i < " << rng.next_in(2, 9) << "; i = i + 1) {\n";
  os << "    g = t + i;\n";
  os << "    t = g * " << rng.next_in(1, 5) << ";\n";
  os << "    m[i & 7] = t;\n";
  os << "    t = m[i & 7] - b;\n";
  os << "  }\n  return t + g;\n}\n";
  ExpectEquivalentAndNoLonger(os.str(), {rng.next_in(-40, 40), rng.next_in(-40, 40)});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeepholeRandom, ::testing::Range(0, 15));

TEST(Peephole, AppsShrinkAndStillPartition) {
  // The six applications all contain writevar/readvar sequences; the
  // peephole must find work in each.
  for (const char* name : {"3d", "ckey", "trick"}) {
    const apps::Application app = apps::GetApplication(name);
    const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
    SlProgram prog = Generate(p.module);
    const std::size_t before = prog.code.size();
    const PeepholeStats stats = Peephole(prog);
    EXPECT_GT(stats.total(), 0u) << name;
    EXPECT_LT(prog.code.size(), before) << name;
  }
}

}  // namespace
}  // namespace lopass::isa
