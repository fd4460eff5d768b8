#include "dsl/parser.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "common/fault.h"
#include "common/units.h"
#include "dsl/lexer.h"

namespace lopass::dsl {

namespace {

// Internal unwind signal: Fail() records the diagnostic, throws
// ParseAbort, and the nearest synchronization point (statement or
// top-level loop) resumes parsing.
struct ParseAbort {};

class Parser {
 public:
  Parser(std::vector<Token> toks, DiagnosticSink& sink)
      : toks_(std::move(toks)), sink_(sink) {}

  Program ParseProgram() {
    Program p;
    while (!At(TokKind::kEof)) {
      const std::size_t before = pos_;
      try {
        if (At(TokKind::kFunc)) {
          p.functions.push_back(ParseFunc());
        } else if (At(TokKind::kVar) || At(TokKind::kArray)) {
          p.globals.push_back(ParseDecl(/*global=*/true));
        } else {
          Fail("expected 'func', 'var' or 'array' at top level");
        }
      } catch (const ParseAbort&) {
        SyncTopLevel(before);
      }
    }
    return p;
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  bool At(TokKind k) const { return Cur().kind == k; }

  Token Eat(TokKind k) {
    if (!At(k)) {
      Fail(std::string("expected ") + TokKindName(k) + ", found " +
           TokKindName(Cur().kind));
    }
    return toks_[pos_++];
  }

  bool Accept(TokKind k) {
    if (At(k)) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Records a syntax error at the current token.
  void Report(const std::string& msg) const {
    sink_.AddError("parse.syntax", msg, SourceLoc{Cur().line, Cur().col});
  }

  [[noreturn]] void Fail(const std::string& msg) const {
    Report(msg);
    throw ParseAbort{};
  }

  [[noreturn]] void FailTooDeep() const {
    Fail("nested deeper than " + std::to_string(kMaxNesting) + " levels");
  }

  // Opens one nesting level (see parser.h) for its scope; past
  // kMaxNesting the current token is a syntax error.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (p_.depth_ == kMaxNesting) p_.FailTooDeep();
      ++p_.depth_;
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  // --- recovery synchronization -----------------------------------------

  // Guarantees forward progress after an error raised at `error_pos`.
  void EnsureProgress(std::size_t error_pos) {
    if (pos_ == error_pos && !At(TokKind::kEof)) ++pos_;
  }

  // Skips to just past the next ';', or stops at '}' / EOF, so the
  // enclosing block can continue with the next statement.
  void SyncStmt(std::size_t error_pos) {
    EnsureProgress(error_pos);
    while (!At(TokKind::kEof) && !At(TokKind::kRBrace)) {
      if (At(TokKind::kSemi)) {
        ++pos_;
        return;
      }
      ++pos_;
    }
  }

  // Skips to the next plausible top-level declaration.
  void SyncTopLevel(std::size_t error_pos) {
    EnsureProgress(error_pos);
    while (!At(TokKind::kEof) && !At(TokKind::kFunc) && !At(TokKind::kVar) &&
           !At(TokKind::kArray)) {
      ++pos_;
    }
  }

  FuncDecl ParseFunc() {
    FuncDecl f;
    f.line = Cur().line;
    Eat(TokKind::kFunc);
    f.name = Eat(TokKind::kIdent).text;
    Eat(TokKind::kLParen);
    if (!At(TokKind::kRParen)) {
      f.params.push_back(Eat(TokKind::kIdent).text);
      while (Accept(TokKind::kComma)) f.params.push_back(Eat(TokKind::kIdent).text);
    }
    Eat(TokKind::kRParen);
    f.body = ParseBlock();
    return f;
  }

  std::vector<StmtPtr> ParseBlock() {
    Nest nest(*this);
    Eat(TokKind::kLBrace);
    std::vector<StmtPtr> body;
    while (!At(TokKind::kRBrace) && !At(TokKind::kEof)) {
      const std::size_t before = pos_;
      try {
        body.push_back(ParseStmt());
      } catch (const ParseAbort&) {
        SyncStmt(before);
      }
    }
    Eat(TokKind::kRBrace);
    return body;
  }

  // A statement of `kind` on the current token's line.
  StmtPtr MakeStmt(Stmt::Kind kind) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->line = Cur().line;
    return s;
  }

  // "(" expr ")", the condition of an if or a while.
  ExprPtr ParseCond() {
    Eat(TokKind::kLParen);
    auto e = ParseExpr();
    Eat(TokKind::kRParen);
    return e;
  }

  StmtPtr ParseDecl(bool global) {
    auto s = MakeStmt(Stmt::Kind::kVarDecl);
    if (Accept(TokKind::kVar)) {
      s->name = Eat(TokKind::kIdent).text;
      if (Accept(TokKind::kAssign)) {
        s->value = ParseExpr();
        if (global) {
          // Fold a leading unary minus so `var g = -5;` works.
          if (s->value->kind == Expr::Kind::kUnary && s->value->un_op == UnOp::kNeg &&
              s->value->args[0]->kind == Expr::Kind::kInt) {
            auto folded = MakeExpr(Expr::Kind::kInt, s->value->line);
            folded->value = WrapNeg(s->value->args[0]->value);
            s->value = std::move(folded);
          }
          if (s->value->kind != Expr::Kind::kInt) {
            Fail("global initializer must be an integer constant");
          }
        }
      }
    } else {
      Eat(TokKind::kArray);
      s->kind = Stmt::Kind::kArrayDecl;
      s->name = Eat(TokKind::kIdent).text;
      Eat(TokKind::kLBracket);
      const Token len = Eat(TokKind::kInt);
      if (len.value <= 0) Fail("array length must be positive");
      s->array_len = static_cast<std::uint32_t>(len.value);
      Eat(TokKind::kRBracket);
    }
    Eat(TokKind::kSemi);
    return s;
  }

  // A `simple` of the grammar, without its ';': a for-init, a for-step
  // or an assignment or store statement.
  StmtPtr ParseSimple() {
    auto s = MakeStmt(Stmt::Kind::kVarDecl);
    if (Accept(TokKind::kVar)) {
      s->name = Eat(TokKind::kIdent).text;
      Eat(TokKind::kAssign);
      s->value = ParseExpr();
      return s;
    }
    const std::string name = Eat(TokKind::kIdent).text;
    if (Accept(TokKind::kLBracket)) {
      s->kind = Stmt::Kind::kStore;
      s->name = name;
      s->index = ParseExpr();
      Eat(TokKind::kRBracket);
      Eat(TokKind::kAssign);
      s->value = ParseExpr();
      return s;
    }
    Eat(TokKind::kAssign);
    s->kind = Stmt::Kind::kAssign;
    s->name = name;
    s->value = ParseExpr();
    return s;
  }

  StmtPtr ParseIf() {
    auto s = MakeStmt(Stmt::Kind::kIf);
    Eat(TokKind::kIf);
    s->cond = ParseCond();
    s->body = ParseBlock();
    if (Accept(TokKind::kElse)) {
      if (At(TokKind::kIf)) {
        Nest nest(*this);
        s->else_body.push_back(ParseIf());  // else-if chain
      } else {
        s->else_body = ParseBlock();
      }
    }
    return s;
  }

  StmtPtr ParseStmt() {
    if (At(TokKind::kVar) || At(TokKind::kArray)) return ParseDecl(/*global=*/false);
    if (At(TokKind::kIf)) return ParseIf();
    if (At(TokKind::kWhile)) {
      auto s = MakeStmt(Stmt::Kind::kWhile);
      Eat(TokKind::kWhile);
      s->cond = ParseCond();
      s->body = ParseBlock();
      return s;
    }
    if (At(TokKind::kFor)) {
      auto s = MakeStmt(Stmt::Kind::kFor);
      Eat(TokKind::kFor);
      Eat(TokKind::kLParen);
      if (!At(TokKind::kSemi)) s->init = ParseSimple();
      Eat(TokKind::kSemi);
      if (!At(TokKind::kSemi)) s->cond = ParseExpr();
      Eat(TokKind::kSemi);
      // The unroller copies the step into the body, so it cannot declare.
      // The rest parses as an assignment: the error stays the only one.
      if (At(TokKind::kVar)) {
        Report("a for-step cannot declare a variable");
        ++pos_;
      }
      if (!At(TokKind::kRParen)) s->step = ParseSimple();
      Eat(TokKind::kRParen);
      s->body = ParseBlock();
      return s;
    }
    if (At(TokKind::kBreak) || At(TokKind::kContinue)) {
      auto s = MakeStmt(At(TokKind::kBreak) ? Stmt::Kind::kBreak : Stmt::Kind::kContinue);
      ++pos_;
      Eat(TokKind::kSemi);
      return s;
    }
    if (At(TokKind::kReturn)) {
      auto s = MakeStmt(Stmt::Kind::kReturn);
      Eat(TokKind::kReturn);
      if (!At(TokKind::kSemi)) s->value = ParseExpr();
      Eat(TokKind::kSemi);
      return s;
    }
    // Assignment, store or expression statement.
    if (At(TokKind::kIdent)) {
      const TokKind next = toks_[pos_ + 1].kind;
      if (next == TokKind::kAssign || next == TokKind::kLBracket) {
        // Could still be an rvalue index expression statement — but a
        // bare `a[i];` has no effect, so treat `ident[` as a store.
        auto s = ParseSimple();
        Eat(TokKind::kSemi);
        return s;
      }
    }
    auto s = MakeStmt(Stmt::Kind::kExpr);
    s->value = ParseExpr();
    Eat(TokKind::kSemi);
    return s;
  }

  // --- expressions ------------------------------------------------------

  ExprPtr ParseExpr() { return ParseBinary(1); }

  ExprPtr MakeExpr(Expr::Kind kind, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = line;
    return e;
  }

  // Precedence climbing: an operand, then every operator of precedence
  // `min_prec` or tighter with its right operand, folded to the left.
  ExprPtr ParseBinary(int min_prec) {
    auto e = ParseUnary();
    int reach = reach_;
    for (auto op = FindBinary(); op != std::end(kBinaryOperators) && op->precedence >= min_prec;
         op = FindBinary()) {
      if (reach == kMaxNesting) FailTooDeep();
      auto bin = MakeExpr(Expr::Kind::kBinary, Cur().line);
      ++pos_;
      bin->bin_op = op->op;
      bin->args.push_back(std::move(e));
      {
        Nest nest(*this);
        bin->args.push_back(ParseBinary(op->precedence + 1));
      }
      reach = std::max(reach + 1, reach_);
      e = std::move(bin);
    }
    reach_ = reach;
    return e;
  }

  const BinaryOperator* FindBinary() const {
    return std::ranges::find(kBinaryOperators, Cur().kind, &BinaryOperator::token);
  }

  ExprPtr ParseUnary() {
    static constexpr std::pair<TokKind, UnOp> kUnary[] = {
        {TokKind::kMinus, UnOp::kNeg},
        {TokKind::kTilde, UnOp::kBitNot},
        {TokKind::kBang, UnOp::kLogicalNot},
    };
    const auto un = std::ranges::find(kUnary, Cur().kind, &std::pair<TokKind, UnOp>::first);
    if (un == std::end(kUnary) && !At(TokKind::kPlus)) return ParsePrimary();
    Nest nest(*this);
    const int line = Cur().line;
    ++pos_;
    if (un == std::end(kUnary)) return ParseUnary();  // unary '+' is the identity
    auto e = MakeExpr(Expr::Kind::kUnary, line);
    e->un_op = un->second;
    e->args.push_back(ParseUnary());
    return e;
  }

  ExprPtr ParsePrimary() {
    const int line = Cur().line;
    reach_ = depth_;
    if (At(TokKind::kInt)) {
      auto e = MakeExpr(Expr::Kind::kInt, line);
      e->value = Eat(TokKind::kInt).value;
      return e;
    }
    if (At(TokKind::kLParen)) {
      Nest nest(*this);
      ++pos_;
      auto e = ParseExpr();
      Eat(TokKind::kRParen);
      return e;
    }
    if (!At(TokKind::kIdent)) {
      Fail(std::string("expected expression, found ") + TokKindName(Cur().kind));
    }
    const std::string name = Eat(TokKind::kIdent).text;
    if (At(TokKind::kLParen)) {
      Nest nest(*this);
      ++pos_;
      auto e = MakeExpr(Expr::Kind::kCall, line);
      e->name = name;
      int reach = depth_;
      if (!At(TokKind::kRParen)) {
        do {
          e->args.push_back(ParseExpr());
          reach = std::max(reach, reach_);
        } while (Accept(TokKind::kComma));
      }
      Eat(TokKind::kRParen);
      reach_ = reach;
      return e;
    }
    if (At(TokKind::kLBracket)) {
      Nest nest(*this);
      ++pos_;
      auto e = MakeExpr(Expr::Kind::kIndex, line);
      e->name = name;
      e->args.push_back(ParseExpr());
      Eat(TokKind::kRBracket);
      return e;
    }
    auto e = MakeExpr(Expr::Kind::kVar, line);
    e->name = name;
    return e;
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  DiagnosticSink& sink_;
  int depth_ = 0;  // nesting levels open around the current token
  int reach_ = 0;  // deepest level the last parsed expression reaches
};

}  // namespace

Program Parse(std::string_view source, DiagnosticSink& sink) {
  fault::MaybeInject("parse");
  Parser p(Tokenize(source, sink), sink);
  return p.ParseProgram();
}

}  // namespace lopass::dsl
