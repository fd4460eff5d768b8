#include "dsl/transform.h"

#include <gtest/gtest.h>

#include "common/prng.h"
#include "dsl/lower.h"
#include "dsl/parser.h"
#include "interp/interpreter.h"

namespace lopass::dsl {
namespace {

std::int64_t RunPlain(const std::string& src, std::vector<std::int64_t> args = {}) {
  const LoweredProgram p = Compile(src);
  interp::Interpreter it(p.module);
  return it.Run("main", args).return_value;
}

std::int64_t RunUnrolled(const std::string& src, int factor,
                         std::vector<std::int64_t> args = {}) {
  const LoweredProgram p = Compile(src, factor);
  interp::Interpreter it(p.module);
  return it.Run("main", args).return_value;
}

// Parses a well-formed program: no diagnostics expected.
Program ParseOk(const std::string& src) {
  DiagnosticSink sink;
  Program p = Parse(src, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.ToString();
  return p;
}

TEST(Unroll, FactorOneIsNoOp) {
  Program ast = ParseOk("func main(n) { var i; for (i = 0; i < n; i = i + 1) { } }");
  EXPECT_EQ(UnrollLoops(ast, 1), 0);
}

TEST(Unroll, CountsUnrolledLoops) {
  Program ast = ParseOk(R"(
    func main(n) {
      var i; var j; var s;
      for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) { s = s + 1; }
      }
      while (s > 0) { s = s - 1; }
      return s;
    })");
  // Both for loops unroll; the while loop (no step) does not.
  EXPECT_EQ(UnrollLoops(ast, 2), 2);
}

TEST(Unroll, PreservesSumsForAllResidues) {
  // Trip counts that are and are not multiples of the factor.
  const char* src = R"(
    func main(n) {
      var i; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) { s = s + i * i; }
      return s;
    })";
  for (int factor : {2, 3, 4, 7}) {
    for (std::int64_t n : {0, 1, 2, 5, 12, 13, 100}) {
      EXPECT_EQ(RunUnrolled(src, factor, {n}), RunPlain(src, {n}))
          << "factor=" << factor << " n=" << n;
    }
  }
}

TEST(Unroll, BodyDeclarationsSurviveReplication) {
  const char* src = R"(
    func main(n) {
      var i; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        var t;
        t = i * 3;
        s = s + t;
      }
      return s;
    })";
  EXPECT_EQ(RunUnrolled(src, 4, {11}), RunPlain(src, {11}));
}

TEST(Unroll, BreakInsideBodyStillExitsTheLoop) {
  const char* src = R"(
    func main(n) {
      var i; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        if (i == 7) { break; }
        s = s + i;
      }
      return s * 100 + i;
    })";
  EXPECT_EQ(RunUnrolled(src, 3, {50}), RunPlain(src, {50}));
}

TEST(Unroll, ContinueBodiesAreSkipped) {
  Program ast = ParseOk(R"(
    func main(n) {
      var i; var s;
      for (i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { continue; }
        s = s + i;
      }
      return s;
    })");
  EXPECT_EQ(UnrollLoops(ast, 2), 0);  // left alone — and still correct
  const char* src = R"(
    func main(n) {
      var i; var s;
      for (i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { continue; }
        s = s + i;
      }
      return s;
    })";
  EXPECT_EQ(RunUnrolled(src, 2, {10}), RunPlain(src, {10}));
}

TEST(Unroll, NestedLoopsUnrollInnerFirst) {
  const char* src = R"(
    array m[64];
    func main(n) {
      var i; var j; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < 8; j = j + 1) { m[((i << 3) + j) & 63] = i * j; }
      }
      for (i = 0; i < 64; i = i + 1) { s = s + m[i]; }
      return s;
    })";
  EXPECT_EQ(RunUnrolled(src, 4, {8}), RunPlain(src, {8}));
}

TEST(Unroll, OversizedBodiesAreLeftAlone) {
  std::string body;
  for (int i = 0; i < 20; ++i) body += "s = s + " + std::to_string(i) + ";\n";
  Program ast = ParseOk("func main(n) { var i; var s; for (i = 0; i < n; i = i + 1) {\n" +
                        body + "} return s; }");
  EXPECT_EQ(UnrollLoops(ast, 2, /*max_body_stmts=*/16), 0);
}

TEST(Unroll, RandomizedEquivalence) {
  Prng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    std::ostringstream os;
    os << "var g;\narray m[16];\nfunc main(a) {\n  var i; var s;\n  s = a;\n";
    os << "  for (i = " << rng.next_in(0, 3) << "; i < " << rng.next_in(4, 23)
       << "; i = i + " << rng.next_in(1, 3) << ") {\n";
    os << "    m[i & 15] = s + i;\n";
    os << "    if ((s & 3) == 1) { g = g + 1; }\n";
    os << "    s = s + m[(s + i) & 15];\n";
    os << "  }\n  return s + g;\n}\n";
    const std::string src = os.str();
    const int factor = 2 + static_cast<int>(rng.next_below(4));
    const std::int64_t arg = rng.next_in(-9, 9);
    SCOPED_TRACE(src);
    EXPECT_EQ(RunUnrolled(src, factor, {arg}), RunPlain(src, {arg})) << factor;
  }
}

TEST(Clone, DeepCopiesAreIndependent) {
  Program ast = ParseOk("func main(a) { if (a > 0) { a = a + 1; } return a; }");
  const Stmt& original = *ast.functions[0].body[0];
  StmtPtr copy = CloneStmt(original);
  // Mutating the copy leaves the original untouched.
  copy->body.clear();
  EXPECT_EQ(original.body.size(), 1u);
  EXPECT_EQ(copy->kind, Stmt::Kind::kIf);
  ASSERT_NE(copy->cond, nullptr);
  EXPECT_NE(copy->cond.get(), original.cond.get());
}

}  // namespace
}  // namespace lopass::dsl
