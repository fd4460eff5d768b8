#include "interp/interpreter.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "dsl/lower.h"

namespace lopass::interp {
namespace {

std::int64_t Eval(const std::string& body_expr, std::vector<std::int64_t> args = {},
                  const std::string& params = "") {
  const std::string src =
      "func main(" + params + ") { return " + body_expr + "; }";
  const dsl::LoweredProgram p = dsl::Compile(src);
  Interpreter it(p.module);
  return it.Run("main", args).return_value;
}

TEST(Interp, Arithmetic) {
  EXPECT_EQ(Eval("2 + 3 * 4"), 14);
  EXPECT_EQ(Eval("(2 + 3) * 4"), 20);
  EXPECT_EQ(Eval("7 / 2"), 3);
  EXPECT_EQ(Eval("-7 / 2"), -3);  // C-style truncation
  EXPECT_EQ(Eval("7 % 3"), 1);
  EXPECT_EQ(Eval("-7 % 3"), -1);
  EXPECT_EQ(Eval("5 - 9"), -4);
  EXPECT_EQ(Eval("-(3)"), -3);
}

TEST(Interp, BitwiseAndShifts) {
  EXPECT_EQ(Eval("12 & 10"), 8);
  EXPECT_EQ(Eval("12 | 10"), 14);
  EXPECT_EQ(Eval("12 ^ 10"), 6);
  EXPECT_EQ(Eval("~0"), -1);
  EXPECT_EQ(Eval("1 << 10"), 1024);
  EXPECT_EQ(Eval("-8 >> 1"), -4);  // arithmetic shift in the DSL
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(Eval("3 < 4"), 1);
  EXPECT_EQ(Eval("4 < 4"), 0);
  EXPECT_EQ(Eval("4 <= 4"), 1);
  EXPECT_EQ(Eval("5 > 4"), 1);
  EXPECT_EQ(Eval("5 >= 6"), 0);
  EXPECT_EQ(Eval("5 == 5"), 1);
  EXPECT_EQ(Eval("5 != 5"), 0);
}

TEST(Interp, LogicalOps) {
  EXPECT_EQ(Eval("2 && 3"), 1);
  EXPECT_EQ(Eval("2 && 0"), 0);
  EXPECT_EQ(Eval("0 || 7"), 1);
  EXPECT_EQ(Eval("0 || 0"), 0);
  EXPECT_EQ(Eval("!5"), 0);
  EXPECT_EQ(Eval("!0"), 1);
}

TEST(Interp, Builtins) {
  EXPECT_EQ(Eval("min(3, -2)"), -2);
  EXPECT_EQ(Eval("max(3, -2)"), 3);
  EXPECT_EQ(Eval("abs(-9)"), 9);
  EXPECT_EQ(Eval("abs(9)"), 9);
}

TEST(Interp, Parameters) {
  EXPECT_EQ(Eval("a * b + c", {2, 3, 4}, "a, b, c"), 10);
}

TEST(Interp, ControlFlow) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    func collatz_steps(n) {
      var steps;
      steps = 0;
      while (n != 1) {
        if (n % 2 == 0) { n = n / 2; }
        else { n = 3 * n + 1; }
        steps = steps + 1;
      }
      return steps;
    }
    func main(n) { return collatz_steps(n); }
  )");
  Interpreter it(p.module);
  const std::vector<std::int64_t> args{27};
  EXPECT_EQ(it.Run("main", args).return_value, 111);
}

TEST(Interp, ForLoopSum) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    func main(n) {
      var i; var s;
      s = 0;
      for (i = 1; i <= n; i = i + 1) { s = s + i; }
      return s;
    })");
  Interpreter it(p.module);
  const std::vector<std::int64_t> args{100};
  EXPECT_EQ(it.Run("main", args).return_value, 5050);
}

TEST(Interp, ArraysAndGlobals) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    var total = 0;
    array data[8];
    func main(n) {
      var i;
      for (i = 0; i < n; i = i + 1) { data[i] = i * i; }
      for (i = 0; i < n; i = i + 1) { total = total + data[i]; }
      return total;
    })");
  Interpreter it(p.module);
  const std::vector<std::int64_t> args{8};
  EXPECT_EQ(it.Run("main", args).return_value, 140);
  EXPECT_EQ(it.GetScalar("total"), 140);
  EXPECT_EQ(it.GetArrayElem(*p.module.FindSymbol("data", -1), 3), 9);
}

TEST(Interp, WorkloadInstallation) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    var k;
    array v[4];
    func main() { return k * (v[0] + v[1] + v[2] + v[3]); })");
  Interpreter it(p.module);
  it.SetScalar("k", 3);
  const std::vector<std::int64_t> vals{1, 2, 3, 4};
  it.FillArray("v", vals);
  EXPECT_EQ(it.Run("main").return_value, 30);
  // Reset clears state back to declared initializers.
  it.Reset();
  EXPECT_EQ(it.GetScalar("k"), 0);
}

TEST(Interp, GlobalInitializers) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    var a = 41;
    func main() { return a + 1; })");
  Interpreter it(p.module);
  EXPECT_EQ(it.Run("main").return_value, 42);
}

TEST(Interp, ProfileCountsBlocks) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    func main(n) {
      var i; var s;
      for (i = 0; i < n; i = i + 1) { s = s + 1; }
      return s;
    })");
  Interpreter it(p.module);
  const std::vector<std::int64_t> args{10};
  it.Run("main", args);
  const Profile& prof = it.profile();
  // Some block ran exactly 10 times (the loop body).
  bool found10 = false, found11 = false;
  for (std::uint64_t c : prof.block_counts[0]) {
    if (c == 10) found10 = true;
    if (c == 11) found11 = true;  // the loop condition block
  }
  EXPECT_TRUE(found10);
  EXPECT_TRUE(found11);
  EXPECT_GT(prof.total_dynamic_ops, 0u);
  EXPECT_EQ(prof.call_count, 1u);
}

TEST(Interp, BreakExitsInnermostLoop) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    func main(n) {
      var i; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        if (i == 5) { break; }
        s = s + i;
      }
      return s * 100 + i;
    })");
  Interpreter it(p.module);
  const std::vector<std::int64_t> args{100};
  // 0+1+2+3+4 = 10, i stops at 5.
  EXPECT_EQ(it.Run("main", args).return_value, 1005);
}

TEST(Interp, ContinueSkipsToStep) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    func main(n) {
      var i; var s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { continue; }
        s = s + i;
      }
      return s;
    })");
  Interpreter it(p.module);
  const std::vector<std::int64_t> args{10};
  EXPECT_EQ(it.Run("main", args).return_value, 1 + 3 + 5 + 7 + 9);
}

TEST(Interp, ContinueInWhileReentersCondition) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    func main(n) {
      var s;
      s = 0;
      while (n > 0) {
        n = n - 1;
        if (n % 3 == 0) { continue; }
        s = s + n;
      }
      return s;
    })");
  Interpreter it(p.module);
  const std::vector<std::int64_t> args{10};
  // sums 1..9 minus multiples of 3 (and 0): 1+2+4+5+7+8 = 27
  EXPECT_EQ(it.Run("main", args).return_value, 27);
}

TEST(Interp, BreakInNestedLoopOnlyExitsInner) {
  const dsl::LoweredProgram p = dsl::Compile(R"(
    func main() {
      var i; var j; var s;
      s = 0;
      for (i = 0; i < 4; i = i + 1) {
        for (j = 0; j < 10; j = j + 1) {
          if (j == 2) { break; }
          s = s + 1;
        }
      }
      return s;
    })");
  Interpreter it(p.module);
  EXPECT_EQ(it.Run("main").return_value, 8);  // 4 outer x 2 inner
}

TEST(Interp, RuntimeFaults) {
  const dsl::LoweredProgram oob = dsl::Compile(R"(
    array a[4];
    func main(i) { return a[i]; })");
  Interpreter it(oob.module);
  const std::vector<std::int64_t> bad{4};
  EXPECT_THROW(it.Run("main", bad), Error);
  const std::vector<std::int64_t> neg{-1};
  EXPECT_THROW(it.Run("main", neg), Error);

  const dsl::LoweredProgram div0 = dsl::Compile("func main(d) { return 1 / d; }");
  Interpreter it2(div0.module);
  const std::vector<std::int64_t> zero{0};
  EXPECT_THROW(it2.Run("main", zero), Error);

  const dsl::LoweredProgram inf = dsl::Compile(
      "func main() { while (1) { } return 0; }");
  Interpreter it3(inf.module);
  EXPECT_THROW(it3.Run("main", {}, 1000), Error);  // step limit
}

TEST(Interp, UnknownEntryThrows) {
  const dsl::LoweredProgram p = dsl::Compile("func main() { return 0; }");
  Interpreter it(p.module);
  EXPECT_THROW(it.Run("nope"), Error);
}

}  // namespace
}  // namespace lopass::interp
