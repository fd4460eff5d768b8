// Property test: the SL32 code generator + system simulator must agree
// with the IR interpreter on program semantics — same return value,
// same final global state and same block entry counts — for
// hand-written kernels and for a family of randomly generated programs.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"
#include "common/prng.h"
#include "core/cluster.h"
#include "dsl/lower.h"
#include "edge_operands.h"
#include "engine_oracle.h"
#include "interp/interpreter.h"
#include "ir/eval.h"
#include "isa/codegen.h"
#include "iss/simulator.h"

namespace lopass {
namespace {

void ExpectEquivalent(const std::string& src, std::vector<std::int64_t> args = {}) {
  SCOPED_TRACE(src);
  const dsl::LoweredProgram p = dsl::Compile(src);
  ExpectEnginesAgree(p.module, core::Workload{"main", std::move(args), {}});
}

TEST(Equivalence, StraightLine) {
  ExpectEquivalent("func main(a, b) { return (a * 7 - b) << 2; }", {13, 5});
  ExpectEquivalent("func main(a) { return a / 3 + a % 3; }", {-17});
  ExpectEquivalent("func main() { return min(4, 9) * max(-1, -7) + abs(-12); }");
  ExpectEquivalent("func main(a) { return ~a ^ (a | 0x0F) & 0xF0; }", {1234});

  // Every binary opcode on every pair of edge operands; division and
  // modulo by zero trap on both engines.
  for (const BinaryForm& f : kBinaryForms) {
    dsl::LoweredProgram p =
        dsl::Compile("func main(a, b) { return " + Apply(f, "a", "b") + "; }");
    if (f.op == ir::Opcode::kShr) RetargetSarToShr(p.module);
    const isa::SlProgram prog = isa::Generate(p.module);
    for (const std::int64_t a : kEdgeOperands) {
      for (const std::int64_t b : kEdgeOperands) {
        SCOPED_TRACE(std::string(ir::OpcodeName(f.op)) + " " + std::to_string(a) + ", " +
                     std::to_string(b));
        const std::vector<std::int64_t> args{a, b};
        interp::Interpreter it(p.module);
        iss::Simulator sim(p.module, prog, iss::SystemConfig{});
        if (ir::Traps(f.op, b)) {
          EXPECT_THROW(it.Run("main", args), Error);
          EXPECT_THROW(sim.Run("main", args), Error);
          continue;
        }
        EXPECT_EQ(it.Run("main", args).return_value, sim.Run("main", args).return_value);
      }
    }
  }
}

TEST(Equivalence, ControlFlow) {
  ExpectEquivalent(R"(
    func main(n) {
      var s; var i;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        if (i % 3 == 0) { s = s + i; }
        else { if (i % 3 == 1) { s = s - i; } else { s = s ^ i; } }
      }
      return s;
    })", {57});
  ExpectEquivalent(R"(
    func main(n) {
      while (n > 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
      }
      return n;
    })", {97});
}

TEST(Equivalence, ArraysAndGlobals) {
  ExpectEquivalent(R"(
    var acc = 3;
    array buf[32];
    func main(n) {
      var i;
      for (i = 0; i < n; i = i + 1) { buf[i] = i * i - 4; }
      for (i = 0; i < n; i = i + 1) { acc = acc + buf[n - 1 - i] * i; }
      return acc;
    })", {32});
}

TEST(Equivalence, FunctionsAndCalls) {
  ExpectEquivalent(R"(
    var depth = 0;
    func square(x) { depth = depth + 1; return x * x; }
    func poly(x, a, b) { return square(x) * a + x * b; }
    func main(x) { return poly(x, 3, -2) + poly(x + 1, 1, 1) + depth; })", {6});
}

TEST(Equivalence, CodelessEntryBlockOfAHardwareCandidate) {
  // f's entry block only falls through to the loop, so it emits no SL32
  // code, and f's cluster is a HW candidate: its utilization charges
  // the block once per entry, so the ISS must count that one entry.
  const std::string src =
      "array a[32]; var g; func f(p) { var i; var t; for (i = 0; i < 20; i = i + 1) "
      "{ t = t + a[i & 31] * p; } return t; } func main(p) { var r; r = f(p); "
      "for (g = 0; g < 5; g = g + 1) { r = r + 1; } return r; }";
  ExpectEquivalent(src, {3});

  const dsl::LoweredProgram p = dsl::Compile(src);
  const ir::Function& f = p.module.function(*p.module.FindFunction("f"));
  const isa::SlProgram prog = isa::Generate(p.module);
  for (const isa::SlInstr& in : prog.code) {
    EXPECT_FALSE(in.fn == f.id && in.block == f.entry) << "f's entry block emits code";
  }
  bool in_candidate = false;
  const core::ClusterChain chain = core::DecomposeIntoClusters(p.module, p.regions, "main");
  for (const core::Cluster& c : chain.clusters) {
    for (const auto& block : c.blocks) {
      in_candidate |= c.hw_candidate && block == std::make_pair(f.id, f.entry);
    }
  }
  EXPECT_TRUE(in_candidate);
  iss::Simulator sim(p.module, prog, iss::SystemConfig{});
  const std::vector<std::int64_t> args{3};
  EXPECT_EQ(sim.Run("main", args).block_cost(f.id, f.entry).entries, 1u);
}

TEST(Equivalence, SpillHeavyExpression) {
  // Right-nested to force spills (see test_isa.cc).
  std::string expr = "(a + 24)";
  for (int i = 23; i >= 1; --i) {
    expr = "((a ^ " + std::to_string(i) + ") * " + expr + ")";
  }
  ExpectEquivalent("func main(a) { return " + expr + "; }", {77});
}


TEST(Equivalence, BreakAndContinue) {
  ExpectEquivalent(R"(
    func main(n) {
      var i; var j; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        if (i == 13) { break; }
        for (j = 0; j < 8; j = j + 1) {
          if ((i + j) % 3 == 0) { continue; }
          s = s + i * j;
        }
      }
      while (s > 100) {
        s = s - 37;
        if (s % 5 == 0) { break; }
      }
      return s;
    })", {20});
}

// ---------------------------------------------------------------------
// Randomized program family. A seeded generator emits structured
// programs (nested arithmetic, loops with bounded trip counts, array
// traffic with masked indices, safe divisors); each seed must agree
// between the two engines.
class RandomProgramGen {
 public:
  explicit RandomProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::ostringstream os;
    os << "var g0 = " << rng_.next_in(-50, 50) << ";\n";
    os << "var g1 = " << rng_.next_in(-50, 50) << ";\n";
    os << "array mem[16];\n";
    os << "func main(a, b) {\n";
    os << "  var t0; var t1; var i;\n";
    os << "  t0 = " << Expr(3) << ";\n";
    os << "  t1 = " << Expr(3) << ";\n";
    // One or two bounded loops.
    const int loops = 1 + static_cast<int>(rng_.next_below(2));
    for (int l = 0; l < loops; ++l) {
      os << "  for (i = 0; i < " << rng_.next_in(3, 12) << "; i = i + 1) {\n";
      os << "    mem[(" << Expr(2) << ") & 15] = " << Expr(2) << ";\n";
      if (rng_.next_below(2)) {
        os << "    if ((" << Expr(2) << ") > 0) { g0 = g0 + " << Expr(1)
           << "; } else { g1 = g1 - " << Expr(1) << "; }\n";
      }
      os << "    t0 = t0 + mem[(t1 + i) & 15];\n";
      os << "  }\n";
    }
    os << "  return t0 ^ t1 + g0 - g1;\n";
    os << "}\n";
    return os.str();
  }

 private:
  std::string Atom() {
    switch (rng_.next_below(6)) {
      case 0: return "a";
      case 1: return "b";
      case 2: return "t0";
      case 3: return "t1";
      case 4: return "g0";
      default: return std::to_string(rng_.next_in(-20, 20));
    }
  }

  std::string Expr(int depth) {
    if (depth == 0) return Atom();
    switch (rng_.next_below(10)) {
      case 0: return "(" + Expr(depth - 1) + " + " + Expr(depth - 1) + ")";
      case 1: return "(" + Expr(depth - 1) + " - " + Expr(depth - 1) + ")";
      case 2: return "(" + Expr(depth - 1) + " * " + Atom() + ")";
      case 3: return "(" + Expr(depth - 1) + " / ((" + Atom() + " & 7) + 1))";
      case 4: return "(" + Expr(depth - 1) + " % ((" + Atom() + " & 7) + 2))";
      case 5: return "(" + Expr(depth - 1) + " ^ " + Expr(depth - 1) + ")";
      case 6: return "(" + Expr(depth - 1) + " << (" + Atom() + " & 3))";
      case 7: return "(" + Expr(depth - 1) + " >> (" + Atom() + " & 3))";
      case 8: return "min(" + Expr(depth - 1) + ", " + Expr(depth - 1) + ")";
      default: return "max(" + Expr(depth - 1) + ", abs(" + Expr(depth - 1) + "))";
    }
  }

  Prng rng_;
};

class RandomizedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedEquivalence, InterpreterAndIssAgree) {
  RandomProgramGen gen(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9ull + 1);
  const std::string src = gen.Generate();
  Prng argrng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const std::vector<std::int64_t> args{argrng.next_in(-100, 100),
                                       argrng.next_in(-100, 100)};
  ExpectEquivalent(src, args);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence, ::testing::Range(0, 40));

}  // namespace
}  // namespace lopass
