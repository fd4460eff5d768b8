// Golden-stability tests for the human-facing printers: the exact IR
// dump and SL32 disassembly of a fixed program. These catch accidental
// format or lowering churn that the semantic tests would not notice.

#include <gtest/gtest.h>

#include "dsl/lower.h"
#include "ir/print.h"
#include "isa/codegen.h"

namespace lopass {
namespace {

const char* kFixed = R"(
var g = 3;
func main(a) {
  var x;
  x = a * g;
  if (x > 10) { x = x - 1; }
  return x;
})";

TEST(GoldenPrint, IrDump) {
  const dsl::LoweredProgram p = dsl::Compile(kFixed);
  const std::string text = ir::ToString(p.module);
  const char* expected =
      "global g @0\n"
      "func main(a) entry=bb0\n"
      "bb0:\n"
      "  %0 = readvar a\n"
      "  %1 = readvar g\n"
      "  %2 = mul %0 %1\n"
      "  writevar x %2\n"
      "  %3 = readvar x\n"
      "  %4 = cmpgt %3 10\n"
      "  condbr %4 ->bb1 ->bb2\n"
      "bb1:\n"
      "  %5 = readvar x\n"
      "  %6 = sub %5 1\n"
      "  writevar x %6\n"
      "  br ->bb2\n"
      "bb2:\n"
      "  %7 = readvar x\n"
      "  ret %7\n";
  EXPECT_EQ(text, expected);
}

TEST(GoldenPrint, DisassemblyShape) {
  const dsl::LoweredProgram p = dsl::Compile(kFixed);
  const isa::SlProgram prog = isa::Generate(p.module);
  const std::string text = isa::ToString(prog);
  // Structure rather than exact register numbers: one function header,
  // the multiply, the compare-and-branch, the final ret.
  EXPECT_NE(text.find("main:"), std::string::npos);
  EXPECT_NE(text.find("mul "), std::string::npos);
  EXPECT_NE(text.find("sgt "), std::string::npos);
  EXPECT_NE(text.find("beqz "), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
  // Every line is attributed to a basic block.
  std::size_t lines = 0, attributed = 0, pos = 0;
  while ((pos = text.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  pos = 0;
  while ((pos = text.find("; bb", pos)) != std::string::npos) {
    ++attributed;
    ++pos;
  }
  EXPECT_EQ(attributed + 1 /* function header line */, lines);
}

}  // namespace
}  // namespace lopass
