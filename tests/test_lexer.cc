#include "dsl/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/error.h"

namespace lopass::dsl {
namespace {

std::vector<TokKind> KindsOf(std::string_view src) {
  std::vector<TokKind> kinds;
  for (const Token& t : Tokenize(src)) kinds.push_back(t.kind);
  return kinds;
}

TEST(Lexer, Keywords) {
  const auto k = KindsOf("func var array if else while for return");
  const std::vector<TokKind> want = {
      TokKind::kFunc, TokKind::kVar, TokKind::kArray, TokKind::kIf, TokKind::kElse,
      TokKind::kWhile, TokKind::kFor, TokKind::kReturn, TokKind::kEof};
  EXPECT_EQ(k, want);
}

TEST(Lexer, IdentifiersAndIntegers) {
  const auto toks = Tokenize("abc _x9 42 0x1F");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "abc");
  EXPECT_EQ(toks[1].text, "_x9");
  EXPECT_EQ(toks[2].kind, TokKind::kInt);
  EXPECT_EQ(toks[2].value, 42);
  EXPECT_EQ(toks[3].value, 0x1F);
}

TEST(Lexer, TwoCharOperators) {
  const auto k = KindsOf("== != <= >= << >> && ||");
  const std::vector<TokKind> want = {TokKind::kEq, TokKind::kNe, TokKind::kLe,
                                     TokKind::kGe, TokKind::kShl, TokKind::kShr,
                                     TokKind::kAmpAmp, TokKind::kPipePipe, TokKind::kEof};
  EXPECT_EQ(k, want);
}

TEST(Lexer, SingleCharOperatorsDontEatNeighbors) {
  const auto k = KindsOf("<= < =");
  const std::vector<TokKind> want = {TokKind::kLe, TokKind::kLt, TokKind::kAssign,
                                     TokKind::kEof};
  EXPECT_EQ(k, want);
}

TEST(Lexer, CommentsAreSkipped) {
  const auto k = KindsOf("a // line comment\n b /* block\n comment */ c");
  const std::vector<TokKind> want = {TokKind::kIdent, TokKind::kIdent, TokKind::kIdent,
                                     TokKind::kEof};
  EXPECT_EQ(k, want);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = Tokenize("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_EQ(toks[2].col, 3);
}

TEST(Lexer, UnterminatedBlockCommentThrows) {
  EXPECT_THROW(Tokenize("a /* never closed"), Error);
}

TEST(Lexer, UnknownCharacterThrows) {
  EXPECT_THROW(Tokenize("a $ b"), Error);
  EXPECT_THROW(Tokenize("a @ b"), Error);
}

TEST(Lexer, MalformedHexThrows) {
  EXPECT_THROW(Tokenize("0x"), Error);
  EXPECT_THROW(Tokenize("0xZ"), Error);
}

TEST(Lexer, IntegerLiteralsUseAtMostSixtyFourBits) {
  const auto toks = Tokenize("9223372036854775807 0x8000000000000000 0xffffffffffffffff");
  EXPECT_EQ(toks[0].value, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(toks[1].value, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(toks[2].value, -1);
  for (const char* src : {"9223372036854775808", "0x1ffffffffffffffff",
                          "99999999999999999999"}) {
    DiagnosticSink sink;
    Tokenize(src, sink);
    ASSERT_EQ(sink.diagnostics().size(), 1u) << src;
    EXPECT_EQ(sink.diagnostics()[0].message, "integer literal out of range") << src;
    EXPECT_EQ(sink.diagnostics()[0].loc.col, 1) << src;
  }
}

TEST(Lexer, Punctuation) {
  const auto k = KindsOf("( ) { } [ ] , ;");
  const std::vector<TokKind> want = {
      TokKind::kLParen, TokKind::kRParen, TokKind::kLBrace, TokKind::kRBrace,
      TokKind::kLBracket, TokKind::kRBracket, TokKind::kComma, TokKind::kSemi,
      TokKind::kEof};
  EXPECT_EQ(k, want);
}

}  // namespace
}  // namespace lopass::dsl
