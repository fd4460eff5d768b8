#include "opt/passes.h"

#include <gtest/gtest.h>

#include "common/prng.h"
#include "dsl/lower.h"
#include "edge_operands.h"
#include "interp/interpreter.h"
#include "ir/eval.h"
#include "ir/print.h"
#include "isa/codegen.h"
#include "iss/simulator.h"

namespace lopass::opt {
namespace {

dsl::LoweredProgram Prog(const std::string& src) { return dsl::Compile(src); }

std::size_t OpCount(const ir::Module& m) { return m.num_ops(); }

std::int64_t Interp(const ir::Module& m, std::vector<std::int64_t> args = {}) {
  interp::Interpreter it(m);
  return it.Run("main", args).return_value;
}

TEST(ConstantFold, FoldsPureArithmetic) {
  dsl::LoweredProgram p = Prog("func main() { return 2 + 3 * 4 - (10 / 2); }");
  const PassStats s = ConstantFold(p.module);
  EXPECT_GT(s.folded_ops, 0u);
  EXPECT_EQ(Interp(p.module), 9);
}

TEST(ConstantFold, PropagatesThroughChains) {
  dsl::LoweredProgram p = Prog(R"(
    func main() {
      var a; var b;
      a = 6;
      b = a;      // not folded (variables live in memory), but the
      return 4 << 3;  // pure chain folds
    })");
  ConstantFold(p.module);
  EXPECT_EQ(Interp(p.module), 32);
}

TEST(ConstantFold, SimplifiesConstantBranches) {
  dsl::LoweredProgram p = Prog(R"(
    func main() {
      var r;
      if (1 < 2) { r = 10; } else { r = 20; }
      return r;
    })");
  const PassStats s = RunStandardPasses(p.module);
  EXPECT_GT(s.branches_simplified, 0u);
  EXPECT_EQ(Interp(p.module), 10);
}

TEST(ConstantFold, KeepsDivisionByZeroTrap) {
  dsl::LoweredProgram p = Prog("func main() { return 1 / 0; }");
  ConstantFold(p.module);
  // Still traps at runtime; not folded away.
  interp::Interpreter it(p.module);
  EXPECT_THROW(it.Run("main"), Error);
}

TEST(ConstantFold, EdgeOperandsFoldToTheUnfoldedValue) {
  // Every binary opcode on every pair of edge operands, then kNeg and
  // kNot on each operand (`+ 0` keeps the lowerer from folding them).
  std::vector<std::pair<std::string, ir::Opcode>> exprs;
  for (const BinaryForm& f : kBinaryForms) {
    for (const std::int64_t a : kEdgeOperands) {
      for (const std::int64_t b : kEdgeOperands) {
        if (!ir::Traps(f.op, b)) exprs.emplace_back(Apply(f, Literal(a), Literal(b)), f.op);
      }
    }
  }
  for (const std::int64_t a : kEdgeOperands) {
    exprs.emplace_back("-(" + Literal(a) + " + 0)", ir::Opcode::kNeg);
    exprs.emplace_back("~(" + Literal(a) + " + 0)", ir::Opcode::kNot);
  }
  for (const auto& [expr, op] : exprs) {
    const std::string src = "func main() { return " + expr + "; }";
    SCOPED_TRACE(src);
    dsl::LoweredProgram plain = Prog(src);
    dsl::LoweredProgram folded = Prog(src);
    if (op == ir::Opcode::kShr) {
      RetargetSarToShr(plain.module);
      RetargetSarToShr(folded.module);
    }
    EXPECT_GT(ConstantFold(folded.module).folded_ops, 0u);
    const std::int64_t want = Interp(plain.module);
    EXPECT_EQ(Interp(folded.module), want);
    const isa::SlProgram code = isa::Generate(plain.module);
    iss::Simulator sim(plain.module, code, iss::SystemConfig{});
    EXPECT_EQ(sim.Run("main").return_value, want);
  }
}

TEST(LocalCse, ReusesRepeatedExpressions) {
  dsl::LoweredProgram p = Prog(R"(
    var x;
    func main(a, b) {
      return (a * b + 1) + (a * b + 1);
    })");
  const std::size_t before = OpCount(p.module);
  const PassStats s = RunStandardPasses(p.module);
  EXPECT_GT(s.cse_reused, 0u);
  // CSE turns the duplicate into a copy; copy propagation + DCE then
  // remove it, shrinking the op count.
  EXPECT_LT(OpCount(p.module), before);
  EXPECT_EQ(Interp(p.module, {3, 4}), 26);
}

TEST(LocalCse, WriteVarInvalidatesReadVar) {
  dsl::LoweredProgram p = Prog(R"(
    var x;
    func main(a) {
      var t;
      x = a;
      t = x + 1;
      x = a * 2;
      return t + (x + 1);   // second x+1 must NOT reuse the first
    })");
  RunStandardPasses(p.module);
  EXPECT_EQ(Interp(p.module, {5}), 6 + 11);
}

TEST(LocalCse, StoreInvalidatesLoad) {
  dsl::LoweredProgram p = Prog(R"(
    array m[4];
    func main(a) {
      var t;
      m[0] = a;
      t = m[0];
      m[0] = a + 1;
      return t + m[0];
    })");
  RunStandardPasses(p.module);
  EXPECT_EQ(Interp(p.module, {7}), 7 + 8);
}

TEST(LocalCse, CallInvalidatesMemoryReads) {
  dsl::LoweredProgram p = Prog(R"(
    var g;
    func bump() { g = g + 1; return 0; }
    func main() {
      var a; var b;
      g = 5;
      a = g;
      bump();
      b = g;
      return a * 100 + b;
    })");
  RunStandardPasses(p.module);
  EXPECT_EQ(Interp(p.module), 506);
}

TEST(DeadCodeElim, RemovesUnusedPureOps) {
  dsl::LoweredProgram p = Prog(R"(
    func main(a) {
      var unused;
      unused = a * 3;   // the writevar keeps the mul alive
      return a + (7 - 7) * a;
    })");
  const PassStats s = RunStandardPasses(p.module);
  EXPECT_GT(s.total(), 0u);
  EXPECT_EQ(Interp(p.module, {9}), 9);
}

TEST(DeadCodeElim, KeepsSideEffects) {
  dsl::LoweredProgram p = Prog(R"(
    var g;
    array m[4];
    func main(a) {
      g = a;       // kept
      m[0] = a;    // kept
      return 0;
    })");
  DeadCodeElim(p.module);
  interp::Interpreter it(p.module);
  const std::vector<std::int64_t> args{42};
  it.Run("main", args);
  EXPECT_EQ(it.GetScalar("g"), 42);
}

TEST(Passes, ReduceDynamicWork) {
  // The FIR kernel recomputes `i + j` addressing; CSE + folding shrink
  // both the static op count and the dynamic instruction count.
  const char* src = R"(
    var n;
    array sig[256]; array out[256];
    func main() {
      var i;
      for (i = 0; i < n; i = i + 1) {
        out[i] = (sig[i] * 3 + sig[i] * 3) + (2 * 8);
      }
      return out[0];
    })";
  dsl::LoweredProgram a = Prog(src);
  dsl::LoweredProgram b = Prog(src);
  RunStandardPasses(b.module);
  EXPECT_LT(OpCount(b.module), OpCount(a.module));

  auto run = [](const ir::Module& m) {
    interp::Interpreter it(m);
    it.SetScalar("n", 128);
    std::vector<std::int64_t> sig(256, 5);
    it.FillArray("sig", sig);
    const auto r = it.Run("main");
    return std::pair(r.return_value, r.steps);
  };
  const auto [va, sa] = run(a.module);
  const auto [vb, sb] = run(b.module);
  EXPECT_EQ(va, vb);
  EXPECT_LT(sb, sa);
}

// Randomized semantic-preservation property: optimized and unoptimized
// programs agree on both engines.
class OptEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptEquivalence, PassesPreserveSemantics) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  // Random but structured program (same generator family as the
  // codegen equivalence test, inlined here with more constants so the
  // folder has work to do).
  std::ostringstream os;
  os << "var g0 = " << rng.next_in(-9, 9) << ";\narray m[16];\n";
  os << "func main(a, b) {\n  var t; var i;\n";
  os << "  t = (a * " << rng.next_in(1, 9) << " + " << rng.next_in(0, 99) << ") ^ ("
     << rng.next_in(0, 7) << " << 2);\n";
  os << "  for (i = 0; i < " << rng.next_in(2, 9) << "; i = i + 1) {\n";
  os << "    m[(t + i) & 15] = t + i * (3 - 3) + (2 * " << rng.next_in(0, 5) << ");\n";
  os << "    if ((i & 1) == 1) { g0 = g0 + m[i & 15] + (6 / 3); }\n";
  os << "    t = t + m[(b + i) & 15];\n";
  os << "  }\n  return t + g0;\n}\n";
  const std::string src = os.str();
  SCOPED_TRACE(src);

  dsl::LoweredProgram plain = Prog(src);
  dsl::LoweredProgram optimized = Prog(src);
  RunStandardPasses(optimized.module);

  const std::vector<std::int64_t> args{rng.next_in(-50, 50), rng.next_in(-50, 50)};
  EXPECT_EQ(Interp(plain.module, args), Interp(optimized.module, args));

  // Also through the ISS on the optimized module.
  const isa::SlProgram code = isa::Generate(optimized.module);
  iss::Simulator sim(optimized.module, code, iss::SystemConfig{});
  EXPECT_EQ(sim.Run("main", args).return_value, Interp(plain.module, args));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptEquivalence, ::testing::Range(0, 25));

TEST(Passes, StatsToString) {
  PassStats s;
  s.folded_ops = 3;
  s.cse_reused = 2;
  EXPECT_NE(s.ToString().find("folded=3"), std::string::npos);
  EXPECT_NE(s.ToString().find("cse=2"), std::string::npos);
}

}  // namespace
}  // namespace lopass::opt
