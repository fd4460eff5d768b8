#include "isa/isa.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "dsl/lower.h"
#include "isa/codegen.h"

namespace lopass::isa {
namespace {

TEST(Isa, InstructionClasses) {
  EXPECT_EQ(ClassOf(SlOp::kAdd), InstrClass::kAlu);
  EXPECT_EQ(ClassOf(SlOp::kSll), InstrClass::kShift);
  EXPECT_EQ(ClassOf(SlOp::kMul), InstrClass::kMul);
  EXPECT_EQ(ClassOf(SlOp::kDiv), InstrClass::kDiv);
  EXPECT_EQ(ClassOf(SlOp::kMod), InstrClass::kDiv);
  EXPECT_EQ(ClassOf(SlOp::kLd), InstrClass::kLoad);
  EXPECT_EQ(ClassOf(SlOp::kSt), InstrClass::kStore);
  EXPECT_EQ(ClassOf(SlOp::kBeqz), InstrClass::kBranch);
  EXPECT_EQ(ClassOf(SlOp::kJ), InstrClass::kJump);
  EXPECT_EQ(ClassOf(SlOp::kRet), InstrClass::kJump);
  EXPECT_EQ(ClassOf(SlOp::kCall), InstrClass::kCall);
  EXPECT_EQ(ClassOf(SlOp::kNop), InstrClass::kNop);
  EXPECT_EQ(ClassOf(SlOp::kLi), InstrClass::kAlu);
}

TEST(Isa, BaseCycles) {
  EXPECT_EQ(BaseCycles(SlOp::kAdd), 1u);
  EXPECT_EQ(BaseCycles(SlOp::kMul), 3u);
  EXPECT_EQ(BaseCycles(SlOp::kDiv), 8u);
  EXPECT_EQ(BaseCycles(SlOp::kJ), 2u);
  EXPECT_EQ(BaseCycles(SlOp::kCall), 2u);
}

TEST(Codegen, ProducesLinkedProgram) {
  const dsl::LoweredProgram lp = dsl::Compile(R"(
    var g;
    func helper(a) { return a * 2; }
    func main() { g = helper(21); return g; })");
  const SlProgram prog = Generate(lp.module);
  ASSERT_EQ(prog.functions.size(), 2u);
  EXPECT_GT(prog.code.size(), 0u);
  // Every branch/call target is a valid instruction index.
  for (const SlInstr& in : prog.code) {
    if (in.op == SlOp::kBeqz || in.op == SlOp::kBnez || in.op == SlOp::kJ ||
        in.op == SlOp::kCall) {
      EXPECT_GE(in.target, 0);
      EXPECT_LT(static_cast<std::size_t>(in.target), prog.code.size());
    }
  }
  // Every instruction is attributed to a function block.
  for (const SlInstr& in : prog.code) {
    EXPECT_GE(in.fn, 0);
    EXPECT_NE(in.block, ir::kNoBlock);
  }
  // Function ranges cover the code exactly.
  std::size_t covered = 0;
  for (const FuncInfo& f : prog.functions) covered += f.end - f.entry;
  EXPECT_EQ(covered, prog.code.size());
}

TEST(Codegen, SpillsUnderRegisterPressure) {
  // A single expression with more live temporaries than the 18
  // allocatable registers forces spills to the function's spill area.
  // Right-nested so every level's left temporary stays live while the
  // right subtree evaluates: ~24 simultaneously live values.
  std::string expr = "(a + 24)";
  for (int i = 23; i >= 1; --i) {
    expr = "((a + " + std::to_string(i) + ") * " + expr + ")";
  }
  const dsl::LoweredProgram lp =
      dsl::Compile("func main(a) { return " + expr + "; }");
  const SlProgram prog = Generate(lp.module);
  EXPECT_GT(prog.functions[0].spill_words, 0u);
  EXPECT_GT(prog.data_size_bytes, lp.module.data_size_bytes());
}

TEST(Codegen, DisassemblyContainsFunctionNames) {
  const dsl::LoweredProgram lp = dsl::Compile("func main() { return 1 + 2; }");
  const SlProgram prog = Generate(lp.module);
  const std::string text = ToString(prog);
  EXPECT_NE(text.find("main"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(Codegen, FallThroughAvoidsRedundantJumps) {
  // An if-else where both arms fall to the join needs at most one J.
  const dsl::LoweredProgram lp = dsl::Compile(R"(
    func main(a) {
      var r;
      if (a > 0) { r = 1; } else { r = 2; }
      return r;
    })");
  const SlProgram prog = Generate(lp.module);
  int jumps = 0;
  for (const SlInstr& in : prog.code) {
    if (in.op == SlOp::kJ) ++jumps;
  }
  EXPECT_LE(jumps, 2);
}

TEST(Program, FunctionLookupThrowsOnUnknown) {
  SlProgram p;
  EXPECT_THROW(p.function(3), Error);
}

}  // namespace
}  // namespace lopass::isa
