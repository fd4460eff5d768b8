#include "dsl/lexer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>

namespace lopass::dsl {
namespace {

// Tokenizes well-formed input: no diagnostics expected.
std::vector<Token> Lex(std::string_view src) {
  DiagnosticSink sink;
  std::vector<Token> toks = Tokenize(src, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.ToString();
  return toks;
}

// The diagnostics malformed input leaves behind.
std::vector<Diagnostic> LexErrors(std::string_view src) {
  DiagnosticSink sink;
  (void)Tokenize(src, sink);
  EXPECT_TRUE(sink.has_errors()) << src;
  return sink.Take();
}

std::vector<TokKind> KindsOf(std::string_view src) {
  std::vector<TokKind> kinds;
  for (const Token& t : Lex(src)) kinds.push_back(t.kind);
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
  const auto toks = Lex("abc _x9 42 0x1F");
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
  const auto toks = Lex("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_EQ(toks[2].col, 3);
}

TEST(Lexer, UnterminatedBlockCommentIsReported) {
  const std::vector<Diagnostic> d = LexErrors("a /* never closed");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].code, "lex.invalid");
  EXPECT_EQ(d[0].message, "unterminated block comment");
  EXPECT_EQ(d[0].loc.col, 3);
}

TEST(Lexer, UnknownCharacterIsReported) {
  for (const char* src : {"a $ b", "a @ b"}) {
    const std::vector<Diagnostic> d = LexErrors(src);
    ASSERT_EQ(d.size(), 1u) << src;
    EXPECT_EQ(d[0].code, "lex.invalid") << src;
    EXPECT_EQ(d[0].message, std::string("unexpected character '") + src[2] + "'");
    EXPECT_EQ(d[0].loc.col, 3) << src;
  }
}

TEST(Lexer, MalformedHexIsReported) {
  for (const char* src : {"0x", "0xZ"}) {
    const std::vector<Diagnostic> d = LexErrors(src);
    ASSERT_FALSE(d.empty()) << src;
    EXPECT_EQ(d[0].code, "lex.invalid") << src;
    EXPECT_EQ(d[0].message, "malformed hex literal") << src;
  }
}

TEST(Lexer, IntegerLiteralsUseAtMostSixtyFourBits) {
  const auto toks = Lex("9223372036854775807 0x8000000000000000 0xffffffffffffffff");
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

// Every fixed spelling of the language, written out here rather than
// read from the lexer, with the kind it must lex to and the text
// TokKindName gives that kind in diagnostics.
struct Spelling {
  const char* text;
  TokKind kind;
  const char* name;
};
constexpr Spelling kSpellings[] = {
    {"func", TokKind::kFunc, "'func'"},
    {"var", TokKind::kVar, "'var'"},
    {"array", TokKind::kArray, "'array'"},
    {"if", TokKind::kIf, "'if'"},
    {"else", TokKind::kElse, "'else'"},
    {"while", TokKind::kWhile, "'while'"},
    {"for", TokKind::kFor, "'for'"},
    {"return", TokKind::kReturn, "'return'"},
    {"break", TokKind::kBreak, "'break'"},
    {"continue", TokKind::kContinue, "'continue'"},
    {"(", TokKind::kLParen, "'('"},
    {")", TokKind::kRParen, "')'"},
    {"{", TokKind::kLBrace, "'{'"},
    {"}", TokKind::kRBrace, "'}'"},
    {"[", TokKind::kLBracket, "'['"},
    {"]", TokKind::kRBracket, "']'"},
    {",", TokKind::kComma, "','"},
    {";", TokKind::kSemi, "';'"},
    {"=", TokKind::kAssign, "'='"},
    {"+", TokKind::kPlus, "'+'"},
    {"-", TokKind::kMinus, "'-'"},
    {"*", TokKind::kStar, "'*'"},
    {"/", TokKind::kSlash, "'/'"},
    {"%", TokKind::kPercent, "'%'"},
    {"&", TokKind::kAmp, "'&'"},
    {"|", TokKind::kPipe, "'|'"},
    {"^", TokKind::kCaret, "'^'"},
    {"~", TokKind::kTilde, "'~'"},
    {"!", TokKind::kBang, "'!'"},
    {"&&", TokKind::kAmpAmp, "'&&'"},
    {"||", TokKind::kPipePipe, "'||'"},
    {"<<", TokKind::kShl, "'<<'"},
    {">>", TokKind::kShr, "'>>'"},
    {"==", TokKind::kEq, "'=='"},
    {"!=", TokKind::kNe, "'!='"},
    {"<", TokKind::kLt, "'<'"},
    {"<=", TokKind::kLe, "'<='"},
    {">", TokKind::kGt, "'>'"},
    {">=", TokKind::kGe, "'>='"},
};

TEST(Lexer, EverySpellingLexesToItsKind) {
  for (const Spelling& s : kSpellings) {
    // Alone, and glued to identifiers on both sides where that keeps
    // the spelling a token of its own.
    EXPECT_EQ(KindsOf(s.text), (std::vector<TokKind>{s.kind, TokKind::kEof})) << s.text;
    const bool word = std::isalpha(static_cast<unsigned char>(s.text[0])) != 0;
    const std::string glued = word ? std::string("a ") + s.text + " b"
                                   : std::string("a") + s.text + "b";
    EXPECT_EQ(KindsOf(glued), (std::vector<TokKind>{TokKind::kIdent, s.kind,
                                                    TokKind::kIdent, TokKind::kEof}))
        << glued;
  }
  // A keyword is a whole word: a longer identifier is not split.
  EXPECT_EQ(KindsOf("format iffy"),
            (std::vector<TokKind>{TokKind::kIdent, TokKind::kIdent, TokKind::kEof}));
}

TEST(Lexer, TokKindNameGivesTheExactTextOfEveryKind) {
  EXPECT_STREQ(TokKindName(TokKind::kEof), "<eof>");
  EXPECT_STREQ(TokKindName(TokKind::kIdent), "identifier");
  EXPECT_STREQ(TokKindName(TokKind::kInt), "integer");
  for (const Spelling& s : kSpellings) EXPECT_STREQ(TokKindName(s.kind), s.name);
  // Three fixed names plus one per spelling cover every kind once.
  EXPECT_EQ(3 + std::size(kSpellings), static_cast<std::size_t>(TokKind::kGe) + 1);
}

}  // namespace
}  // namespace lopass::dsl
