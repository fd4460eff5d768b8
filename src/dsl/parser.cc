#include "dsl/parser.h"

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

  [[noreturn]] void Fail(const std::string& msg) const {
    sink_.AddError("parse.syntax", msg, SourceLoc{Cur().line, Cur().col});
    throw ParseAbort{};
  }

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

  StmtPtr ParseDecl(bool global) {
    auto s = std::make_unique<Stmt>();
    s->line = Cur().line;
    if (Accept(TokKind::kVar)) {
      s->kind = Stmt::Kind::kVarDecl;
      s->name = Eat(TokKind::kIdent).text;
      if (Accept(TokKind::kAssign)) {
        s->value = ParseExpr();
        if (global) {
          // Fold a leading unary minus so `var g = -5;` works.
          if (s->value->kind == Expr::Kind::kUnary && s->value->un_op == UnOp::kNeg &&
              s->value->args[0]->kind == Expr::Kind::kInt) {
            auto folded = std::make_unique<Expr>();
            folded->kind = Expr::Kind::kInt;
            folded->line = s->value->line;
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

  // A "simple" statement usable in for-init/for-step (no trailing ';').
  StmtPtr ParseSimple() {
    auto s = std::make_unique<Stmt>();
    s->line = Cur().line;
    if (Accept(TokKind::kVar)) {
      s->kind = Stmt::Kind::kVarDecl;
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
    auto s = std::make_unique<Stmt>();
    s->line = Cur().line;
    s->kind = Stmt::Kind::kIf;
    Eat(TokKind::kIf);
    Eat(TokKind::kLParen);
    s->cond = ParseExpr();
    Eat(TokKind::kRParen);
    s->body = ParseBlock();
    if (Accept(TokKind::kElse)) {
      if (At(TokKind::kIf)) {
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
      auto s = std::make_unique<Stmt>();
      s->line = Cur().line;
      s->kind = Stmt::Kind::kWhile;
      Eat(TokKind::kWhile);
      Eat(TokKind::kLParen);
      s->cond = ParseExpr();
      Eat(TokKind::kRParen);
      s->body = ParseBlock();
      return s;
    }
    if (At(TokKind::kFor)) {
      auto s = std::make_unique<Stmt>();
      s->line = Cur().line;
      s->kind = Stmt::Kind::kFor;
      Eat(TokKind::kFor);
      Eat(TokKind::kLParen);
      if (!At(TokKind::kSemi)) s->init = ParseSimple();
      Eat(TokKind::kSemi);
      if (!At(TokKind::kSemi)) s->cond = ParseExpr();
      Eat(TokKind::kSemi);
      if (!At(TokKind::kRParen)) s->step = ParseSimple();
      Eat(TokKind::kRParen);
      s->body = ParseBlock();
      return s;
    }
    if (At(TokKind::kBreak)) {
      auto s = std::make_unique<Stmt>();
      s->line = Cur().line;
      s->kind = Stmt::Kind::kBreak;
      Eat(TokKind::kBreak);
      Eat(TokKind::kSemi);
      return s;
    }
    if (At(TokKind::kContinue)) {
      auto s = std::make_unique<Stmt>();
      s->line = Cur().line;
      s->kind = Stmt::Kind::kContinue;
      Eat(TokKind::kContinue);
      Eat(TokKind::kSemi);
      return s;
    }
    if (At(TokKind::kReturn)) {
      auto s = std::make_unique<Stmt>();
      s->line = Cur().line;
      s->kind = Stmt::Kind::kReturn;
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
    auto s = std::make_unique<Stmt>();
    s->line = Cur().line;
    s->kind = Stmt::Kind::kExpr;
    s->value = ParseExpr();
    Eat(TokKind::kSemi);
    return s;
  }

  // --- expressions (C precedence) ---------------------------------------

  ExprPtr ParseExpr() { return ParseLogicalOr(); }

  ExprPtr MakeBin(BinOp op, ExprPtr a, ExprPtr b, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kBinary;
    e->bin_op = op;
    e->line = line;
    e->args.push_back(std::move(a));
    e->args.push_back(std::move(b));
    return e;
  }

  ExprPtr ParseLogicalOr() {
    auto e = ParseLogicalAnd();
    while (At(TokKind::kPipePipe)) {
      const int line = Cur().line;
      Eat(TokKind::kPipePipe);
      e = MakeBin(BinOp::kLogicalOr, std::move(e), ParseLogicalAnd(), line);
    }
    return e;
  }

  ExprPtr ParseLogicalAnd() {
    auto e = ParseBitOr();
    while (At(TokKind::kAmpAmp)) {
      const int line = Cur().line;
      Eat(TokKind::kAmpAmp);
      e = MakeBin(BinOp::kLogicalAnd, std::move(e), ParseBitOr(), line);
    }
    return e;
  }

  ExprPtr ParseBitOr() {
    auto e = ParseBitXor();
    while (At(TokKind::kPipe)) {
      const int line = Cur().line;
      Eat(TokKind::kPipe);
      e = MakeBin(BinOp::kOr, std::move(e), ParseBitXor(), line);
    }
    return e;
  }

  ExprPtr ParseBitXor() {
    auto e = ParseBitAnd();
    while (At(TokKind::kCaret)) {
      const int line = Cur().line;
      Eat(TokKind::kCaret);
      e = MakeBin(BinOp::kXor, std::move(e), ParseBitAnd(), line);
    }
    return e;
  }

  ExprPtr ParseBitAnd() {
    auto e = ParseEquality();
    while (At(TokKind::kAmp)) {
      const int line = Cur().line;
      Eat(TokKind::kAmp);
      e = MakeBin(BinOp::kAnd, std::move(e), ParseEquality(), line);
    }
    return e;
  }

  ExprPtr ParseEquality() {
    auto e = ParseRelational();
    while (At(TokKind::kEq) || At(TokKind::kNe)) {
      const int line = Cur().line;
      const BinOp op = Accept(TokKind::kEq) ? BinOp::kEq : (Eat(TokKind::kNe), BinOp::kNe);
      e = MakeBin(op, std::move(e), ParseRelational(), line);
    }
    return e;
  }

  ExprPtr ParseRelational() {
    auto e = ParseShift();
    while (At(TokKind::kLt) || At(TokKind::kLe) || At(TokKind::kGt) || At(TokKind::kGe)) {
      const int line = Cur().line;
      BinOp op;
      if (Accept(TokKind::kLt)) op = BinOp::kLt;
      else if (Accept(TokKind::kLe)) op = BinOp::kLe;
      else if (Accept(TokKind::kGt)) op = BinOp::kGt;
      else { Eat(TokKind::kGe); op = BinOp::kGe; }
      e = MakeBin(op, std::move(e), ParseShift(), line);
    }
    return e;
  }

  ExprPtr ParseShift() {
    auto e = ParseAdditive();
    while (At(TokKind::kShl) || At(TokKind::kShr)) {
      const int line = Cur().line;
      const BinOp op = Accept(TokKind::kShl) ? BinOp::kShl : (Eat(TokKind::kShr), BinOp::kShr);
      e = MakeBin(op, std::move(e), ParseAdditive(), line);
    }
    return e;
  }

  ExprPtr ParseAdditive() {
    auto e = ParseMultiplicative();
    while (At(TokKind::kPlus) || At(TokKind::kMinus)) {
      const int line = Cur().line;
      const BinOp op =
          Accept(TokKind::kPlus) ? BinOp::kAdd : (Eat(TokKind::kMinus), BinOp::kSub);
      e = MakeBin(op, std::move(e), ParseMultiplicative(), line);
    }
    return e;
  }

  ExprPtr ParseMultiplicative() {
    auto e = ParseUnary();
    while (At(TokKind::kStar) || At(TokKind::kSlash) || At(TokKind::kPercent)) {
      const int line = Cur().line;
      BinOp op;
      if (Accept(TokKind::kStar)) op = BinOp::kMul;
      else if (Accept(TokKind::kSlash)) op = BinOp::kDiv;
      else { Eat(TokKind::kPercent); op = BinOp::kMod; }
      e = MakeBin(op, std::move(e), ParseUnary(), line);
    }
    return e;
  }

  ExprPtr ParseUnary() {
    const int line = Cur().line;
    if (Accept(TokKind::kMinus)) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->un_op = UnOp::kNeg;
      e->line = line;
      e->args.push_back(ParseUnary());
      return e;
    }
    if (Accept(TokKind::kTilde)) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->un_op = UnOp::kBitNot;
      e->line = line;
      e->args.push_back(ParseUnary());
      return e;
    }
    if (Accept(TokKind::kBang)) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->un_op = UnOp::kLogicalNot;
      e->line = line;
      e->args.push_back(ParseUnary());
      return e;
    }
    if (Accept(TokKind::kPlus)) return ParseUnary();
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    const int line = Cur().line;
    if (At(TokKind::kInt)) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kInt;
      e->value = Eat(TokKind::kInt).value;
      e->line = line;
      return e;
    }
    if (Accept(TokKind::kLParen)) {
      auto e = ParseExpr();
      Eat(TokKind::kRParen);
      return e;
    }
    if (At(TokKind::kIdent)) {
      const std::string name = Eat(TokKind::kIdent).text;
      if (Accept(TokKind::kLParen)) {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kCall;
        e->name = name;
        e->line = line;
        if (!At(TokKind::kRParen)) {
          e->args.push_back(ParseExpr());
          while (Accept(TokKind::kComma)) e->args.push_back(ParseExpr());
        }
        Eat(TokKind::kRParen);
        return e;
      }
      if (Accept(TokKind::kLBracket)) {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kIndex;
        e->name = name;
        e->line = line;
        e->args.push_back(ParseExpr());
        Eat(TokKind::kRBracket);
        return e;
      }
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kVar;
      e->name = name;
      e->line = line;
      return e;
    }
    Fail(std::string("expected expression, found ") + TokKindName(Cur().kind));
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  DiagnosticSink& sink_;
};

}  // namespace

Program Parse(std::string_view source, DiagnosticSink& sink) {
  fault::MaybeInject("parse");
  Parser p(Tokenize(source, sink), sink);
  return p.ParseProgram();
}

}  // namespace lopass::dsl
