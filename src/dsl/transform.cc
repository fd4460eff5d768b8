#include "dsl/transform.h"

#include "common/error.h"

namespace lopass::dsl {
namespace {

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->line = e.line;
  out->value = e.value;
  out->name = e.name;
  out->bin_op = e.bin_op;
  out->un_op = e.un_op;
  out->args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) out->args.push_back(CloneExpr(*a));
  return out;
}

}  // namespace

StmtPtr CloneStmt(const Stmt& s) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  out->line = s.line;
  out->name = s.name;
  out->array_len = s.array_len;
  if (s.value) out->value = CloneExpr(*s.value);
  if (s.index) out->index = CloneExpr(*s.index);
  if (s.cond) out->cond = CloneExpr(*s.cond);
  if (s.init) out->init = CloneStmt(*s.init);
  if (s.step) out->step = CloneStmt(*s.step);
  out->body.reserve(s.body.size());
  for (const StmtPtr& b : s.body) out->body.push_back(CloneStmt(*b));
  out->else_body.reserve(s.else_body.size());
  for (const StmtPtr& b : s.else_body) out->else_body.push_back(CloneStmt(*b));
  return out;
}

namespace {

// True if a `continue` binds to the loop owning this statement list
// (does not descend into nested loops, whose continue binds to them).
bool HasDirectContinue(const std::vector<StmtPtr>& body) {
  for (const StmtPtr& s : body) {
    switch (s->kind) {
      case Stmt::Kind::kContinue:
        return true;
      case Stmt::Kind::kIf:
        if (HasDirectContinue(s->body) || HasDirectContinue(s->else_body)) return true;
        break;
      default:
        break;  // kWhile/kFor capture their own continue
    }
  }
  return false;
}

// Rewrites declarations into assignments for replicas 2..K.
void DeclsToAssigns(std::vector<StmtPtr>& body) {
  for (auto it = body.begin(); it != body.end();) {
    Stmt& s = **it;
    switch (s.kind) {
      case Stmt::Kind::kVarDecl:
        if (s.value) {
          s.kind = Stmt::Kind::kAssign;
          ++it;
        } else {
          it = body.erase(it);
        }
        break;
      case Stmt::Kind::kArrayDecl:
        it = body.erase(it);
        break;
      case Stmt::Kind::kIf:
        DeclsToAssigns(s.body);
        DeclsToAssigns(s.else_body);
        ++it;
        break;
      case Stmt::Kind::kWhile:
      case Stmt::Kind::kFor:
        DeclsToAssigns(s.body);
        // A decl in a nested for-init also re-declares.
        if (s.kind == Stmt::Kind::kFor && s.init &&
            s.init->kind == Stmt::Kind::kVarDecl) {
          s.init->kind = Stmt::Kind::kAssign;
        }
        ++it;
        break;
      default:
        ++it;
        break;
    }
  }
}

// `if (!(cond)) { break; }`
StmtPtr MakeGuard(const Expr& cond) {
  auto neg = std::make_unique<Expr>();
  neg->kind = Expr::Kind::kUnary;
  neg->un_op = UnOp::kLogicalNot;
  neg->line = cond.line;
  neg->args.push_back(CloneExpr(cond));

  auto brk = std::make_unique<Stmt>();
  brk->kind = Stmt::Kind::kBreak;
  brk->line = cond.line;

  auto guard = std::make_unique<Stmt>();
  guard->kind = Stmt::Kind::kIf;
  guard->line = cond.line;
  guard->cond = std::move(neg);
  guard->body.push_back(std::move(brk));
  return guard;
}

int UnrollStmtList(std::vector<StmtPtr>& body, int factor, int max_body_stmts);

int UnrollOne(Stmt& loop, int factor, int max_body_stmts) {
  // Recurse first so inner loops unroll before the outer body grows.
  int count = UnrollStmtList(loop.body, factor, max_body_stmts);

  if (loop.kind != Stmt::Kind::kFor || loop.cond == nullptr || loop.step == nullptr) {
    return count;
  }
  if (static_cast<int>(loop.body.size()) > max_body_stmts) return count;
  if (HasDirectContinue(loop.body)) return count;

  std::vector<StmtPtr> unrolled;
  for (int k = 0; k < factor; ++k) {
    std::vector<StmtPtr> replica;
    replica.reserve(loop.body.size());
    for (const StmtPtr& s : loop.body) replica.push_back(CloneStmt(*s));
    if (k > 0) DeclsToAssigns(replica);
    for (StmtPtr& s : replica) unrolled.push_back(std::move(s));
    if (k + 1 < factor) {
      unrolled.push_back(CloneStmt(*loop.step));
      unrolled.push_back(MakeGuard(*loop.cond));
    }
  }
  loop.body = std::move(unrolled);
  return count + 1;
}

int UnrollStmtList(std::vector<StmtPtr>& body, int factor, int max_body_stmts) {
  int count = 0;
  for (StmtPtr& s : body) {
    switch (s->kind) {
      case Stmt::Kind::kFor:
      case Stmt::Kind::kWhile:
        count += UnrollOne(*s, factor, max_body_stmts);
        break;
      case Stmt::Kind::kIf:
        count += UnrollStmtList(s->body, factor, max_body_stmts);
        count += UnrollStmtList(s->else_body, factor, max_body_stmts);
        break;
      default:
        break;
    }
  }
  return count;
}

}  // namespace

int UnrollLoops(Program& program, int factor, int max_body_stmts) {
  LOPASS_CHECK(factor >= 1, "unroll factor must be >= 1");
  if (factor == 1) return 0;
  int count = 0;
  for (FuncDecl& f : program.functions) {
    count += UnrollStmtList(f.body, factor, max_body_stmts);
  }
  return count;
}

}  // namespace lopass::dsl
