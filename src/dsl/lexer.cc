#include "dsl/lexer.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <unordered_map>

namespace lopass::dsl {

const char* TokKindName(TokKind k) {
  switch (k) {
    case TokKind::kEof: return "<eof>";
    case TokKind::kIdent: return "identifier";
    case TokKind::kInt: return "integer";
    case TokKind::kFunc: return "'func'";
    case TokKind::kVar: return "'var'";
    case TokKind::kArray: return "'array'";
    case TokKind::kIf: return "'if'";
    case TokKind::kElse: return "'else'";
    case TokKind::kWhile: return "'while'";
    case TokKind::kFor: return "'for'";
    case TokKind::kReturn: return "'return'";
    case TokKind::kBreak: return "'break'";
    case TokKind::kContinue: return "'continue'";
    case TokKind::kLParen: return "'('";
    case TokKind::kRParen: return "')'";
    case TokKind::kLBrace: return "'{'";
    case TokKind::kRBrace: return "'}'";
    case TokKind::kLBracket: return "'['";
    case TokKind::kRBracket: return "']'";
    case TokKind::kComma: return "','";
    case TokKind::kSemi: return "';'";
    case TokKind::kAssign: return "'='";
    case TokKind::kPlus: return "'+'";
    case TokKind::kMinus: return "'-'";
    case TokKind::kStar: return "'*'";
    case TokKind::kSlash: return "'/'";
    case TokKind::kPercent: return "'%'";
    case TokKind::kAmp: return "'&'";
    case TokKind::kPipe: return "'|'";
    case TokKind::kCaret: return "'^'";
    case TokKind::kTilde: return "'~'";
    case TokKind::kBang: return "'!'";
    case TokKind::kAmpAmp: return "'&&'";
    case TokKind::kPipePipe: return "'||'";
    case TokKind::kShl: return "'<<'";
    case TokKind::kShr: return "'>>'";
    case TokKind::kEq: return "'=='";
    case TokKind::kNe: return "'!='";
    case TokKind::kLt: return "'<'";
    case TokKind::kLe: return "'<='";
    case TokKind::kGt: return "'>'";
    case TokKind::kGe: return "'>='";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string_view, TokKind>& Keywords() {
  static const std::unordered_map<std::string_view, TokKind> kw = {
      {"func", TokKind::kFunc},   {"var", TokKind::kVar},
      {"array", TokKind::kArray}, {"if", TokKind::kIf},
      {"else", TokKind::kElse},   {"while", TokKind::kWhile},
      {"for", TokKind::kFor},     {"return", TokKind::kReturn},
      {"break", TokKind::kBreak}, {"continue", TokKind::kContinue},
  };
  return kw;
}

}  // namespace

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
  auto push = [&](TokKind k, int l, int c) {
    Token t;
    t.kind = k;
    t.line = l;
    t.col = c;
    out.push_back(std::move(t));
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
      Token t;
      auto it = Keywords().find(word);
      t.kind = it != Keywords().end() ? it->second : TokKind::kIdent;
      t.text = std::string(word);
      t.line = l;
      t.col = cl;
      out.push_back(std::move(t));
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
      Token t;
      t.kind = TokKind::kInt;
      t.value = static_cast<std::int64_t>(value);
      t.line = l;
      t.col = cl;
      out.push_back(std::move(t));
      advance(j - i);
      continue;
    }

    auto two = [&](char second, TokKind kk) -> bool {
      if (peek(1) == second) {
        push(kk, l, cl);
        advance(2);
        return true;
      }
      return false;
    };
    switch (c) {
      case '(': push(TokKind::kLParen, l, cl); advance(); break;
      case ')': push(TokKind::kRParen, l, cl); advance(); break;
      case '{': push(TokKind::kLBrace, l, cl); advance(); break;
      case '}': push(TokKind::kRBrace, l, cl); advance(); break;
      case '[': push(TokKind::kLBracket, l, cl); advance(); break;
      case ']': push(TokKind::kRBracket, l, cl); advance(); break;
      case ',': push(TokKind::kComma, l, cl); advance(); break;
      case ';': push(TokKind::kSemi, l, cl); advance(); break;
      case '+': push(TokKind::kPlus, l, cl); advance(); break;
      case '-': push(TokKind::kMinus, l, cl); advance(); break;
      case '*': push(TokKind::kStar, l, cl); advance(); break;
      case '/': push(TokKind::kSlash, l, cl); advance(); break;
      case '%': push(TokKind::kPercent, l, cl); advance(); break;
      case '^': push(TokKind::kCaret, l, cl); advance(); break;
      case '~': push(TokKind::kTilde, l, cl); advance(); break;
      case '&':
        if (!two('&', TokKind::kAmpAmp)) { push(TokKind::kAmp, l, cl); advance(); }
        break;
      case '|':
        if (!two('|', TokKind::kPipePipe)) { push(TokKind::kPipe, l, cl); advance(); }
        break;
      case '=':
        if (!two('=', TokKind::kEq)) { push(TokKind::kAssign, l, cl); advance(); }
        break;
      case '!':
        if (!two('=', TokKind::kNe)) { push(TokKind::kBang, l, cl); advance(); }
        break;
      case '<':
        if (!two('<', TokKind::kShl) && !two('=', TokKind::kLe)) {
          push(TokKind::kLt, l, cl);
          advance();
        }
        break;
      case '>':
        if (!two('>', TokKind::kShr) && !two('=', TokKind::kGe)) {
          push(TokKind::kGt, l, cl);
          advance();
        }
        break;
      default:
        report(l, cl, std::string("unexpected character '") + c + "'");
        advance();  // recovery: drop the character
    }
  }
  Token eof;
  eof.kind = TokKind::kEof;
  eof.line = line;
  eof.col = col;
  out.push_back(eof);
  return out;
}

}  // namespace lopass::dsl
