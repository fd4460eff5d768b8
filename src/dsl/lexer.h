#pragma once

// Lexer for the lopass behavioral DSL — the "behavioral description" an
// application arrives in (Fig. 5 box "Application"). The language is a
// small C subset: int scalars/arrays, functions, for/while/if,
// expressions with C operator precedence, plus min/max/abs builtins.
//
// Each keyword and punctuation spelling is written once, in the token
// table of lexer.cc: Tokenize matches punctuation against it longest
// first, and TokKindName quotes it. The binary operators' precedence
// and IR opcodes are in kBinaryOperators (parser.h).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/diag.h"

namespace lopass::dsl {

enum class TokKind : std::uint8_t {
  kEof,
  kIdent,
  kInt,
  // Keywords.
  kFunc, kVar, kArray, kIf, kElse, kWhile, kFor, kReturn, kBreak, kContinue,
  // Punctuation / operators.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kComma, kSemi,
  kAssign,                  // =
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kTilde, kBang,
  kAmpAmp, kPipePipe,
  kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

// How diagnostics name a kind: the quoted spelling ("'<='"), or
// "<eof>", "identifier", "integer".
const char* TokKindName(TokKind k);

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;        // identifier spelling
  std::int64_t value = 0;  // integer literal value
  int line = 0;
  int col = 0;
};

// Tokenizes `source`. `//` and `/* */` comments are skipped. Integer
// literals may be decimal or 0x hex. Malformed lexemes (unexpected
// characters, string literals, unterminated comments, bad or
// out-of-range literals) are reported to `sink` and skipped, so the
// parser can surface every problem in the file instead of only the
// first. Always returns a token stream ending in kEof.
std::vector<Token> Tokenize(std::string_view source, DiagnosticSink& sink);

}  // namespace lopass::dsl
