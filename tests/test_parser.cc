#include "dsl/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/prng.h"

namespace lopass::dsl {
namespace {

// Parses a well-formed program: no diagnostics expected.
Program ParseOk(std::string_view src) {
  DiagnosticSink sink;
  Program p = Parse(src, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.ToString();
  return p;
}

TEST(Parser, TopLevelDeclarations) {
  const Program p = ParseOk("var g = 5; array buf[64]; func main() { return 0; }");
  ASSERT_EQ(p.globals.size(), 2u);
  EXPECT_EQ(p.globals[0]->kind, Stmt::Kind::kVarDecl);
  EXPECT_EQ(p.globals[0]->name, "g");
  ASSERT_NE(p.globals[0]->value, nullptr);
  EXPECT_EQ(p.globals[0]->value->value, 5);
  EXPECT_EQ(p.globals[1]->kind, Stmt::Kind::kArrayDecl);
  EXPECT_EQ(p.globals[1]->array_len, 64u);
  ASSERT_EQ(p.functions.size(), 1u);
  EXPECT_EQ(p.functions[0].name, "main");
}

TEST(Parser, FunctionParameters) {
  const Program p = ParseOk("func f(a, b, c) { return a; }");
  EXPECT_EQ(p.functions[0].params, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Parser, PrecedenceMulOverAdd) {
  const Program p = ParseOk("func f() { var x; x = 1 + 2 * 3; }");
  const Stmt& s = *p.functions[0].body[1];
  ASSERT_EQ(s.kind, Stmt::Kind::kAssign);
  const Expr& e = *s.value;
  ASSERT_EQ(e.kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.bin_op, BinOp::kAdd);
  EXPECT_EQ(e.args[1]->bin_op, BinOp::kMul);
}

TEST(Parser, PrecedenceShiftBelowAdd) {
  // 1 << 2 + 3 parses as 1 << (2 + 3) in C.
  const Program p = ParseOk("func f() { var x; x = 1 << 2 + 3; }");
  const Expr& e = *p.functions[0].body[1]->value;
  EXPECT_EQ(e.bin_op, BinOp::kShl);
  EXPECT_EQ(e.args[1]->bin_op, BinOp::kAdd);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  const Program p = ParseOk("func f() { var x; x = (1 + 2) * 3; }");
  const Expr& e = *p.functions[0].body[1]->value;
  EXPECT_EQ(e.bin_op, BinOp::kMul);
  EXPECT_EQ(e.args[0]->bin_op, BinOp::kAdd);
}

// The eighteen binary operators with their C precedence level (higher
// binds tighter), written out here rather than read from the parser.
struct BinarySpelling {
  const char* text;
  BinOp op;
  int level;
};
constexpr BinarySpelling kBinaryOps[] = {
    {"*", BinOp::kMul, 10},        {"/", BinOp::kDiv, 10},
    {"%", BinOp::kMod, 10},        {"+", BinOp::kAdd, 9},
    {"-", BinOp::kSub, 9},         {"<<", BinOp::kShl, 8},
    {">>", BinOp::kShr, 8},        {"<", BinOp::kLt, 7},
    {"<=", BinOp::kLe, 7},         {">", BinOp::kGt, 7},
    {">=", BinOp::kGe, 7},         {"==", BinOp::kEq, 6},
    {"!=", BinOp::kNe, 6},         {"&", BinOp::kAnd, 5},
    {"^", BinOp::kXor, 4},         {"|", BinOp::kOr, 3},
    {"&&", BinOp::kLogicalAnd, 2}, {"||", BinOp::kLogicalOr, 1},
};

void ExpectVar(const Expr& e, const char* name) {
  EXPECT_EQ(e.kind, Expr::Kind::kVar);
  EXPECT_EQ(e.name, name);
}

// `a OP1 b OP2 c` for every ordered pair: the looser operator is the
// root, and at equal precedence the left one nests (left associativity).
TEST(Parser, EveryOperatorPairNestsByPrecedenceAndAssociativity) {
  for (const BinarySpelling& first : kBinaryOps) {
    for (const BinarySpelling& second : kBinaryOps) {
      const std::string src = std::string("func f(a, b, c) { return a ") + first.text +
                              " b " + second.text + " c; }";
      SCOPED_TRACE(src);
      const Program p = ParseOk(src);
      const Expr& root = *p.functions[0].body[0]->value;
      ASSERT_EQ(root.kind, Expr::Kind::kBinary);
      ASSERT_EQ(root.args.size(), 2u);
      if (first.level >= second.level) {
        // (a OP1 b) OP2 c
        EXPECT_EQ(root.bin_op, second.op);
        const Expr& left = *root.args[0];
        ASSERT_EQ(left.kind, Expr::Kind::kBinary);
        EXPECT_EQ(left.bin_op, first.op);
        ExpectVar(*left.args[0], "a");
        ExpectVar(*left.args[1], "b");
        ExpectVar(*root.args[1], "c");
      } else {
        // a OP1 (b OP2 c)
        EXPECT_EQ(root.bin_op, first.op);
        ExpectVar(*root.args[0], "a");
        const Expr& right = *root.args[1];
        ASSERT_EQ(right.kind, Expr::Kind::kBinary);
        EXPECT_EQ(right.bin_op, second.op);
        ExpectVar(*right.args[0], "b");
        ExpectVar(*right.args[1], "c");
      }
    }
  }
}

TEST(Parser, UnaryOperators) {
  const Program p = ParseOk("func f() { var x; x = -1; x = ~x; x = !x; x = +5; }");
  EXPECT_EQ(p.functions[0].body[1]->value->un_op, UnOp::kNeg);
  EXPECT_EQ(p.functions[0].body[2]->value->un_op, UnOp::kBitNot);
  EXPECT_EQ(p.functions[0].body[3]->value->un_op, UnOp::kLogicalNot);
  EXPECT_EQ(p.functions[0].body[4]->value->kind, Expr::Kind::kInt);
}

TEST(Parser, IfElseChain) {
  const Program p = ParseOk(R"(
    func f(a) {
      if (a > 2) { return 2; }
      else if (a > 1) { return 1; }
      else { return 0; }
    })");
  const Stmt& s = *p.functions[0].body[0];
  ASSERT_EQ(s.kind, Stmt::Kind::kIf);
  ASSERT_EQ(s.else_body.size(), 1u);
  EXPECT_EQ(s.else_body[0]->kind, Stmt::Kind::kIf);
  EXPECT_EQ(s.else_body[0]->else_body.size(), 1u);
}

TEST(Parser, ForLoopParts) {
  const Program p = ParseOk("func f() { var i; for (i = 0; i < 4; i = i + 1) { } }");
  const Stmt& s = *p.functions[0].body[1];
  ASSERT_EQ(s.kind, Stmt::Kind::kFor);
  ASSERT_NE(s.init, nullptr);
  ASSERT_NE(s.cond, nullptr);
  ASSERT_NE(s.step, nullptr);
  EXPECT_EQ(s.init->kind, Stmt::Kind::kAssign);
}

TEST(Parser, ForLoopPartsMayBeEmpty) {
  const Program p = ParseOk("func f() { for (;;) { return 0; } }");
  const Stmt& s = *p.functions[0].body[0];
  EXPECT_EQ(s.init, nullptr);
  EXPECT_EQ(s.cond, nullptr);
  EXPECT_EQ(s.step, nullptr);
}

TEST(Parser, ArrayStoreAndLoad) {
  const Program p = ParseOk("array a[8]; func f(i) { a[i] = a[i + 1]; }");
  const Stmt& s = *p.functions[0].body[0];
  ASSERT_EQ(s.kind, Stmt::Kind::kStore);
  EXPECT_EQ(s.name, "a");
  EXPECT_EQ(s.value->kind, Expr::Kind::kIndex);
}

TEST(Parser, CallsAndBuiltins) {
  const Program p = ParseOk(R"(
    func g(x) { return x; }
    func f() { var y; y = g(3) + min(1, 2) + max(3, 4) + abs(-5); })");
  const Expr& e = *p.functions[1].body[1]->value;
  EXPECT_EQ(e.kind, Expr::Kind::kBinary);  // the + chain
}

TEST(Parser, ExpressionStatement) {
  const Program p = ParseOk("func g() { return 0; } func f() { g(); }");
  EXPECT_EQ(p.functions[1].body[0]->kind, Stmt::Kind::kExpr);
}

TEST(Parser, WhileLoop) {
  const Program p = ParseOk("func f(n) { while (n > 0) { n = n - 1; } return n; }");
  EXPECT_EQ(p.functions[0].body[0]->kind, Stmt::Kind::kWhile);
}

std::string Repeat(std::string_view text, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += text;
  return out;
}

// One statement nested `n` levels below the function body, whose block
// is the first level.
struct NestingShape {
  const char* name;
  std::string (*statement)(int n);
};
const NestingShape kNestingShapes[] = {
    {"parentheses", [](int n) { return "x = " + Repeat("(", n) + "1" + Repeat(")", n) + ";"; }},
    {"unary", [](int n) { return "x = " + Repeat("- ", n) + "1;"; }},
    {"left chain", [](int n) { return "x = 1" + Repeat(" + 1", n) + ";"; }},
    {"right operands",
     [](int n) { return "x = " + Repeat("1 - (", n) + "1" + Repeat(")", n) + ";"; }},
    {"indices", [](int n) { return "x = " + Repeat("a[", n) + "0" + Repeat("]", n) + ";"; }},
    {"call arguments", [](int n) { return "x = " + Repeat("f(", n) + "1" + Repeat(")", n) + ";"; }},
    {"blocks", [](int n) { return Repeat("if (x) { ", n) + Repeat("}", n); }},
};

std::string NestedProgram(const NestingShape& shape, int n) {
  return "func f(x) {\n" + shape.statement(n) + "\nreturn x;\n}\n";
}

TEST(Parser, NestingUpToTheBoundParses) {
  for (const NestingShape& shape : kNestingShapes) {
    SCOPED_TRACE(shape.name);
    const Program p = ParseOk(NestedProgram(shape, kMaxNesting / 2 - 1));
    EXPECT_EQ(p.functions[0].body.size(), 2u);
  }
  // Levels that open no tree node count all the same.
  for (const NestingShape& shape : {kNestingShapes[0], kNestingShapes[1], kNestingShapes[2],
                                    kNestingShapes[6]}) {
    SCOPED_TRACE(shape.name);
    (void)ParseOk(NestedProgram(shape, kMaxNesting - 1));
  }
}

TEST(Parser, NestingPastTheBoundIsASyntaxErrorAndParsingResumes) {
  for (const NestingShape& shape : kNestingShapes) {
    for (int n : {kMaxNesting, 20000}) {
      SCOPED_TRACE(std::string(shape.name) + " x" + std::to_string(n));
      DiagnosticSink sink;
      const Program p = Parse(NestedProgram(shape, n), sink);
      ASSERT_TRUE(sink.has_errors());
      const Diagnostic& d = sink.diagnostics()[0];
      EXPECT_EQ(d.code, "parse.syntax");
      EXPECT_EQ(d.message, "nested deeper than " + std::to_string(kMaxNesting) + " levels");
      EXPECT_EQ(d.loc.line, 2);
      // The statement after the too-deep one still parses.
      ASSERT_EQ(p.functions.size(), 1u);
      if (std::string_view(shape.name) != "blocks") {
        EXPECT_EQ(sink.diagnostics().size(), 1u) << sink.ToString();
        ASSERT_EQ(p.functions[0].body.size(), 1u);
        EXPECT_EQ(p.functions[0].body[0]->kind, Stmt::Kind::kReturn);
      }
    }
  }
}

// The levels a left-leaning chain adds count at their depth in the
// tree: a chain of groups, each a chain of a third of the bound, is
// too deep although the parser itself nests only three groups deep.
TEST(Parser, ChainsOfChainsCountTheirWholeHeight) {
  std::string expr = "1";
  for (int group = 0; group < 3; ++group) {
    expr = "(" + expr + Repeat(" + 1", kMaxNesting / 3) + ")";
  }
  DiagnosticSink sink;
  (void)Parse("func f(x) { x = " + expr + "; }", sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].message,
            "nested deeper than " + std::to_string(kMaxNesting) + " levels");
}

TEST(Parser, LongElseIfChainsAreBounded) {
  const std::string chain = "if (x) { }" + Repeat(" else if (x) { }", 20000);
  DiagnosticSink sink;
  (void)Parse("func f(x) { " + chain + " return x; }", sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].message,
            "nested deeper than " + std::to_string(kMaxNesting) + " levels");
  (void)ParseOk("func f(x) { if (x) { }" + Repeat(" else if (x) { }", 100) + " return x; }");
}

// Malformed inputs, parameterized.
class ParserErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserErrors, ReportsASyntaxError) {
  DiagnosticSink sink;
  (void)Parse(GetParam(), sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].code, "parse.syntax") << sink.ToString();
  EXPECT_TRUE(sink.diagnostics()[0].loc.valid()) << sink.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    BadPrograms, ParserErrors,
    ::testing::Values("func f( { }",                      // bad param list
                      "func f() { var; }",                // missing name
                      "func f() { x = ; }",               // missing expr
                      "func f() { if a > 1 { } }",        // missing parens
                      "array a[0];",                      // zero length
                      "array a[-4];",                     // negative length
                      "var g = x;",                       // non-const global init
                      "func f() { return 1 }",            // missing semicolon
                      "func f() { a[1 = 2; }",            // unclosed index
                      "stray",                            // garbage at top level
                      "func f() { for (return 0;;) {} }"  // bad for-init
                      ));


// Robustness: random token soup must never crash or hang — the parser
// returns a program, with a diagnostic for every syntax error.
class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, NeverCrashes) {
  lopass::Prng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  static const char* kTokens[] = {
      "func", "var",  "array", "if",    "else", "while", "for",  "return",
      "main", "x",    "y",     "0",     "1",    "42",    "(",    ")",
      "{",    "}",    "[",     "]",     ";",    ",",     "=",    "+",
      "-",    "*",    "/",     "%",     "<",    ">",     "==",   "!=",
      "<<",   ">>",   "&&",    "||",    "&",    "|",     "^",    "~",
      "!",    "min",  "max",   "abs"};
  std::string src;
  const int len = 5 + static_cast<int>(rng.next_below(60));
  for (int i = 0; i < len; ++i) {
    src += kTokens[rng.next_below(sizeof(kTokens) / sizeof(kTokens[0]))];
    src += ' ';
  }
  DiagnosticSink sink;
  (void)Parse(src, sink);
}

INSTANTIATE_TEST_SUITE_P(Soups, ParserFuzz, ::testing::Range(0, 200));

}  // namespace
}  // namespace lopass::dsl
