#include "dsl/lower.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "ir/print.h"
#include "ir/verify.h"

namespace lopass::dsl {
namespace {

using ir::RegionKind;

TEST(Lower, CompileVerifiesAndAssignsAddresses) {
  const LoweredProgram p = Compile(R"(
    var g = 7;
    array a[4];
    func main() { return g; }
  )");
  EXPECT_EQ(p.module.num_functions(), 1u);
  EXPECT_GT(p.module.data_size_bytes(), 0u);
  // Word-aligned, distinct addresses.
  const auto g = p.module.FindSymbol("g", -1);
  const auto a = p.module.FindSymbol("a", -1);
  ASSERT_TRUE(g && a);
  EXPECT_EQ(p.module.symbol(*g).address % 4, 0u);
  EXPECT_NE(p.module.symbol(*g).address, p.module.symbol(*a).address);
  EXPECT_EQ(p.module.symbol(*g).init, 7);
}

TEST(Lower, FunctionRegionTreeForLoops) {
  const LoweredProgram p = Compile(R"(
    func main() {
      var i; var s;
      s = 0;
      for (i = 0; i < 4; i = i + 1) { s = s + i; }
      return s;
    })");
  const ir::RegionId root = p.regions.function_root(0);
  const ir::RegionNode& rn = p.regions.node(root);
  EXPECT_EQ(rn.kind, RegionKind::kFunction);
  // Children: leading leaf, the loop, trailing leaf.
  bool saw_loop = false;
  for (ir::RegionId c : rn.children) {
    if (p.regions.node(c).kind == RegionKind::kLoop) saw_loop = true;
  }
  EXPECT_TRUE(saw_loop);
}

TEST(Lower, NestedLoopsNestInRegionTree) {
  const LoweredProgram p = Compile(R"(
    func main() {
      var i; var j; var s;
      for (i = 0; i < 3; i = i + 1) {
        for (j = 0; j < 3; j = j + 1) { s = s + 1; }
      }
      return s;
    })");
  // Find the outer loop region and check an inner loop lives below it.
  const ir::RegionId root = p.regions.function_root(0);
  int outer_loops = 0;
  int inner_loops = 0;
  for (const ir::RegionNode& n : p.regions.nodes()) {
    if (n.kind != RegionKind::kLoop) continue;
    if (n.loop_depth == 1) ++outer_loops;
    if (n.loop_depth == 2) ++inner_loops;
  }
  EXPECT_EQ(outer_loops, 1);
  EXPECT_EQ(inner_loops, 1);
  (void)root;
}

TEST(Lower, IfElseRegions) {
  const LoweredProgram p = Compile(R"(
    func main(a) {
      var r;
      if (a > 0) { r = 1; } else { r = 2; }
      return r;
    })");
  int ifelse = 0;
  for (const ir::RegionNode& n : p.regions.nodes()) {
    if (n.kind == RegionKind::kIfElse) ++ifelse;
  }
  EXPECT_EQ(ifelse, 1);
}

TEST(Lower, IfWithoutElseRegionShape) {
  const LoweredProgram p = Compile(R"(
    var g = 3;
    func main(a) {
      var x;
      x = a * g;
      if (x > 10) { x = x - 1; }
      return x;
    })");
  // Fixed shape: the function root holds a leading leaf, the if region
  // and a trailing leaf; the if's one arm is a sequence holding a leaf.
  ASSERT_EQ(p.regions.num_nodes(), 6u);
  const ir::RegionNode& root = p.regions.node(p.regions.function_root(0));
  EXPECT_EQ(root.kind, RegionKind::kFunction);
  EXPECT_EQ(root.label, "func main");
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(p.regions.node(root.children[0]).kind, RegionKind::kLeaf);
  EXPECT_EQ(p.regions.node(root.children[2]).kind, RegionKind::kLeaf);
  const ir::RegionNode& if_region = p.regions.node(root.children[1]);
  EXPECT_EQ(if_region.kind, RegionKind::kIfElse);
  ASSERT_EQ(if_region.children.size(), 1u);
  const ir::RegionNode& arm = p.regions.node(if_region.children[0]);
  EXPECT_EQ(arm.kind, RegionKind::kSequence);
  ASSERT_EQ(arm.children.size(), 1u);
  EXPECT_EQ(p.regions.node(arm.children[0]).kind, RegionKind::kLeaf);
}

TEST(Lower, EveryBlockOwnedByExactlyOneRegion) {
  const LoweredProgram p = Compile(R"(
    func main(a) {
      var i; var s;
      if (a > 0) { s = 1; } else { s = 2; }
      for (i = 0; i < a; i = i + 1) { s = s + i; if (s > 10) { s = 0; } }
      while (s > 0) { s = s - 1; }
      return s;
    })");
  std::vector<int> owners(p.module.function(0).blocks.size(), 0);
  for (const ir::RegionNode& n : p.regions.nodes()) {
    for (ir::BlockId b : n.blocks) ++owners[static_cast<std::size_t>(b)];
  }
  for (std::size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(owners[i], 1) << "block " << i;
  }
}

TEST(Lower, LogicalOpsAreArithmetic) {
  // `a && b` lowers to (a != 0) & (b != 0); both sides evaluate.
  const LoweredProgram p = Compile(R"(
    func main(a, b) { return (a && b) + (a || b) + !a; })");
  const std::string text = ir::ToString(p.module, p.module.function(0));
  EXPECT_NE(text.find("cmpne"), std::string::npos);
  EXPECT_NE(text.find("and"), std::string::npos);
  EXPECT_NE(text.find("or"), std::string::npos);
}

// The opcodes `main`'s entry block computes, reads and the return
// left out.
std::vector<ir::Opcode> ComputedOps(const LoweredProgram& p) {
  std::vector<ir::Opcode> ops;
  const ir::Function& fn = p.module.function(0);
  for (const ir::Instr& in : fn.block(fn.entry).instrs) {
    if (in.op != ir::Opcode::kReadVar && in.op != ir::Opcode::kRet) ops.push_back(in.op);
  }
  return ops;
}

TEST(Lower, EveryOperatorLowersToItsOpcode) {
  using ir::Opcode;
  const struct {
    const char* text;
    std::vector<Opcode> ops;
  } kBinary[] = {
      {"+", {Opcode::kAdd}},      {"-", {Opcode::kSub}},
      {"*", {Opcode::kMul}},      {"/", {Opcode::kDiv}},
      {"%", {Opcode::kMod}},      {"&", {Opcode::kAnd}},
      {"|", {Opcode::kOr}},       {"^", {Opcode::kXor}},
      {"<<", {Opcode::kShl}},     {">>", {Opcode::kSar}},
      {"==", {Opcode::kCmpEq}},   {"!=", {Opcode::kCmpNe}},
      {"<", {Opcode::kCmpLt}},    {"<=", {Opcode::kCmpLe}},
      {">", {Opcode::kCmpGt}},    {">=", {Opcode::kCmpGe}},
      {"&&", {Opcode::kCmpNe, Opcode::kCmpNe, Opcode::kAnd}},
      {"||", {Opcode::kCmpNe, Opcode::kCmpNe, Opcode::kOr}},
  };
  for (const auto& op : kBinary) {
    const std::string src = std::string("func main(a, b) { return a ") + op.text + " b; }";
    EXPECT_EQ(ComputedOps(Compile(src)), op.ops) << src;
  }
  const struct {
    const char* text;
    Opcode op;
  } kUnary[] = {{"-", Opcode::kNeg}, {"~", Opcode::kNot}, {"!", Opcode::kCmpEq}};
  for (const auto& op : kUnary) {
    const std::string src = std::string("func main(a) { return ") + op.text + "a; }";
    EXPECT_EQ(ComputedOps(Compile(src)), std::vector<Opcode>{op.op}) << src;
  }
}

TEST(Lower, AbsBecomesNegMax) {
  const LoweredProgram p = Compile("func main(a) { return abs(a); }");
  const std::string text = ir::ToString(p.module, p.module.function(0));
  EXPECT_NE(text.find("neg"), std::string::npos);
  EXPECT_NE(text.find("max"), std::string::npos);
}

TEST(Lower, StatementsAfterReturnAreUnreachableButValid) {
  EXPECT_NO_THROW(Compile("func main() { return 1; var x; x = 2; }"));
}

TEST(Lower, MissingReturnGetsImplicitOne) {
  const LoweredProgram p = Compile("func main() { var x; x = 1; }");
  EXPECT_NO_THROW(ir::VerifyOrThrow(p.module));
}

TEST(Lower, LocalShadowsGlobal) {
  const LoweredProgram p = Compile(R"(
    var x = 9;
    func main() { var x; x = 1; return x; }
  )");
  // Two distinct symbols named x.
  int count = 0;
  for (const ir::Symbol& s : p.module.symbols()) {
    if (s.name == "x") ++count;
  }
  EXPECT_EQ(count, 2);
}

class LowerErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(LowerErrors, Throws) { EXPECT_THROW(Compile(GetParam()), lopass::Error); }

INSTANTIATE_TEST_SUITE_P(
    SemanticErrors, LowerErrors,
    ::testing::Values(
        "func main() { return y; }",                        // undeclared
        "func main() { var x; var x; }",                    // redeclaration
        "var g = 1; var g = 2; func main() { return 0; }",  // dup global
        "func f() { return 0; } func f() { return 1; }",    // dup function
        "func main() { return f(1); }",                     // unknown callee
        "array a[4]; func main() { return a; }",            // array as scalar
        "var s; func main() { return s[0]; }",              // scalar as array
        "func main() { return min(1); }",                   // builtin arity
        "func main() { return abs(1, 2); }",                // builtin arity
        "func main(a, a) { return 0; }",                    // dup param
        "func main() { break; }",                           // break outside loop
        "func main() { continue; return 0; }"               // continue outside loop
        ));

}  // namespace
}  // namespace lopass::dsl
