#include "dsl/lexer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>

namespace lopass::dsl {

namespace {

// Every keyword and punctuation spelling of the language, each once:
// the ten words, then the punctuation, whose two-character spellings
// come before their one-character prefixes so that the first entry a
// punctuation run starts with is its longest match.
struct Spelling {
  std::string_view text;
  TokKind kind;
};
constexpr Spelling kSpellings[] = {
    {"func", TokKind::kFunc},   {"var", TokKind::kVar},
    {"array", TokKind::kArray}, {"if", TokKind::kIf},
    {"else", TokKind::kElse},   {"while", TokKind::kWhile},
    {"for", TokKind::kFor},     {"return", TokKind::kReturn},
    {"break", TokKind::kBreak}, {"continue", TokKind::kContinue},
    {"&&", TokKind::kAmpAmp},   {"||", TokKind::kPipePipe},
    {"<<", TokKind::kShl},      {">>", TokKind::kShr},
    {"==", TokKind::kEq},       {"!=", TokKind::kNe},
    {"<=", TokKind::kLe},       {">=", TokKind::kGe},
    {"(", TokKind::kLParen},    {")", TokKind::kRParen},
    {"{", TokKind::kLBrace},    {"}", TokKind::kRBrace},
    {"[", TokKind::kLBracket},  {"]", TokKind::kRBracket},
    {",", TokKind::kComma},     {";", TokKind::kSemi},
    {"=", TokKind::kAssign},    {"+", TokKind::kPlus},
    {"-", TokKind::kMinus},     {"*", TokKind::kStar},
    {"/", TokKind::kSlash},     {"%", TokKind::kPercent},
    {"&", TokKind::kAmp},       {"|", TokKind::kPipe},
    {"^", TokKind::kCaret},     {"~", TokKind::kTilde},
    {"!", TokKind::kBang},      {"<", TokKind::kLt},
    {">", TokKind::kGt},
};
constexpr auto kWords = std::span(kSpellings).first(10);
constexpr auto kPunctuation = std::span(kSpellings).subspan(10);

}  // namespace

const char* TokKindName(TokKind k) {
  static const auto quoted = [] {
    std::array<std::string, std::size(kSpellings)> q;
    for (std::size_t i = 0; i < q.size(); ++i) {
      q[i].reserve(kSpellings[i].text.size() + 2);
      q[i] += '\'';
      q[i] += kSpellings[i].text;
      q[i] += '\'';
    }
    return q;
  }();
  switch (k) {
    case TokKind::kEof: return "<eof>";
    case TokKind::kIdent: return "identifier";
    case TokKind::kInt: return "integer";
    default: return quoted[std::ranges::find(kSpellings, k, &Spelling::kind) - kSpellings].c_str();
  }
}

std::vector<Token> Tokenize(std::string_view src, DiagnosticSink& sink) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1, col = 1;

  // Records one lexical error; the scan continues past it.
  auto report = [&](int l, int c, const std::string& msg) {
    sink.AddError("lex.invalid", msg, SourceLoc{l, c});
  };

  auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto peek = [&](std::size_t off = 0) -> char {
    return i + off < src.size() ? src[i + off] : '\0';
  };
  auto push = [&](TokKind k, int l, int c) -> Token& {
    Token& t = out.emplace_back();
    t.kind = k;
    t.line = l;
    t.col = c;
    return t;
  };

  while (i < src.size()) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < src.size() && src[i] != '\n') advance();
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int l = line, cl = col;
      advance(2);
      while (i < src.size() && !(src[i] == '*' && peek(1) == '/')) advance();
      if (i >= src.size()) {
        report(l, cl, "unterminated block comment");
        continue;  // recovery: the comment swallowed the rest of the file
      }
      advance(2);
      continue;
    }
    if (c == '"') {
      // The DSL has no string type; scan the literal as a unit so the
      // diagnostic points at the opening quote and recovery resumes
      // after the closing one.
      const int l = line, cl = col;
      advance();
      while (i < src.size() && src[i] != '"') advance();
      if (i >= src.size()) {
        report(l, cl, "unterminated string literal");
      } else {
        advance();  // closing quote
        report(l, cl, "string literals are not supported in the lopass DSL");
      }
      continue;
    }
    const int l = line, cl = col;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[j])) || src[j] == '_')) {
        ++j;
      }
      const std::string_view word = src.substr(i, j - i);
      const auto keyword = std::ranges::find_if(
          kWords, [&](const Spelling& w) { return w.text[0] == c && w.text == word; });
      push(keyword != kWords.end() ? keyword->kind : TokKind::kIdent, l, cl).text = word;
      advance(j - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // A decimal literal must not exceed INT64_MAX; a hex literal may
      // use all 64 bits (0x8000000000000000 is INT64_MIN).
      std::size_t j = i;
      std::uint64_t value = 0;
      bool in_range = true;
      if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        j = i + 2;
        if (j >= src.size() || !std::isxdigit(static_cast<unsigned char>(src[j]))) {
          report(l, cl, "malformed hex literal");
          advance(2);  // recovery: skip the bare "0x" prefix
          continue;
        }
        while (j < src.size() && std::isxdigit(static_cast<unsigned char>(src[j]))) {
          const char d = src[j];
          const int dv = std::isdigit(static_cast<unsigned char>(d))
                             ? d - '0'
                             : std::tolower(static_cast<unsigned char>(d)) - 'a' + 10;
          in_range = in_range && (value >> 60) == 0;
          value = value * 16 + static_cast<std::uint64_t>(dv);
          ++j;
        }
      } else {
        constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
        while (j < src.size() && std::isdigit(static_cast<unsigned char>(src[j]))) {
          const auto dv = static_cast<std::uint64_t>(src[j] - '0');
          in_range = in_range && value <= (kMax - dv) / 10;
          value = value * 10 + dv;
          ++j;
        }
      }
      if (!in_range) {
        report(l, cl, "integer literal out of range");
        value = 0;  // recovery: scan on past the whole literal
      }
      push(TokKind::kInt, l, cl).value = static_cast<std::int64_t>(value);
      advance(j - i);
      continue;
    }

    const std::string_view rest = src.substr(i);
    const auto punct = std::ranges::find_if(kPunctuation, [&](const Spelling& p) {
      return p.text[0] == c && rest.starts_with(p.text);
    });
    if (punct != kPunctuation.end()) {
      push(punct->kind, l, cl);
      advance(punct->text.size());
    } else {
      report(l, cl, std::string("unexpected character '") + c + "'");
      advance();  // recovery: drop the character
    }
  }
  push(TokKind::kEof, line, col);
  return out;
}

}  // namespace lopass::dsl
