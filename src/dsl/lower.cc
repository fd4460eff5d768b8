#include "dsl/lower.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/error.h"
#include "common/units.h"
#include "dsl/parser.h"
#include "dsl/transform.h"
#include "ir/verify.h"

namespace lopass::dsl {

namespace {

using ir::BlockId;
using ir::FunctionBuilder;
using ir::Opcode;
using ir::Operand;
using ir::RegionId;
using ir::RegionKind;
using ir::SymbolId;

// A semantic error in the program, at the source line it names.
struct SemanticError : Error {
  SemanticError(int line, const std::string& message) : Error(message), line(line) {}
  int line;
};

class Lowerer {
 public:
  LoweredProgram Run(const Program& ast) {
    // Globals first so every function sees them.
    for (const StmtPtr& g : ast.globals) {
      if (g->kind == Stmt::Kind::kVarDecl) {
        CheckNewGlobal(g->name, g->line);
        const SymbolId id = mod_.AddScalar(g->name);
        if (g->value) mod_.symbol_mutable(id).init = g->value->value;
        mod_.symbol_mutable(id).decl_line = g->line;
        globals_[g->name] = id;
      } else {
        CheckNewGlobal(g->name, g->line);
        const SymbolId id = mod_.AddArray(g->name, g->array_len);
        mod_.symbol_mutable(id).decl_line = g->line;
        globals_[g->name] = id;
      }
    }
    // Declare all functions up front (forward references).
    for (const FuncDecl& f : ast.functions) {
      if (mod_.FindFunction(f.name)) SemErr(f.line, "duplicate function '" + f.name + "'");
      const ir::FunctionId fid = mod_.AddFunction(f.name);
      mod_.symbol_mutable(mod_.function(fid).symbol).decl_line = f.line;
    }
    for (const FuncDecl& f : ast.functions) LowerFunction(f);

    mod_.AssignAddresses();
    regions_.ComputeLoopDepths();

    LoweredProgram out;
    out.module = std::move(mod_);
    out.regions = std::move(regions_);
    return out;
  }

 private:
  void CheckNewGlobal(const std::string& name, int line) {
    if (globals_.count(name)) SemErr(line, "duplicate global '" + name + "'");
  }

  [[noreturn]] void SemErr(int line, const std::string& msg) {
    throw SemanticError(line, msg);
  }

  SymbolId LookupVar(const std::string& name, int line) {
    if (auto it = locals_.find(name); it != locals_.end()) return it->second;
    if (auto it = globals_.find(name); it != globals_.end()) return it->second;
    SemErr(line, "undeclared identifier '" + name + "'");
  }

  void LowerFunction(const FuncDecl& f) {
    const ir::FunctionId fid = *mod_.FindFunction(f.name);
    ir::Function& fn = mod_.function(fid);
    FunctionBuilder fb(mod_, fid);
    fb_ = &fb;
    cur_fn_ = fid;
    locals_.clear();

    for (const std::string& p : f.params) {
      if (locals_.count(p)) SemErr(f.line, "duplicate parameter '" + p + "'");
      const SymbolId id = mod_.AddScalar(p, fid);
      mod_.symbol_mutable(id).decl_line = f.line;
      locals_[p] = id;
      fn.params.push_back(id);
    }
    fb.SetLine(f.line);

    const BlockId entry = fb.NewBlock();
    fb.SetBlock(entry);
    terminated_ = false;
    open_leaf_ = ir::kNoRegion;

    const RegionId root = regions_.AddNode(RegionKind::kFunction, fid, ir::kNoRegion,
                                           "func " + f.name);
    regions_.SetFunctionRoot(fid, root);
    cur_seq_ = root;

    LowerStmtList(f.body);

    if (!terminated_) {
      EnsureLeaf();
      fb.EmitRet();
    }
    fb_ = nullptr;
  }

  // Opens a leaf region owning the current block, if none is open.
  void EnsureLeaf() {
    if (open_leaf_ == ir::kNoRegion) {
      open_leaf_ = regions_.AddNode(RegionKind::kLeaf, cur_fn_, cur_seq_, "leaf");
      regions_.AddBlock(open_leaf_, fb_->current_block());
    }
  }

  // If the current block already ended (return), start a fresh
  // (unreachable) block so further emission stays well formed.
  void EnsureOpenBlock() {
    if (terminated_) {
      const BlockId b = fb_->NewBlock();
      fb_->SetBlock(b);
      open_leaf_ = ir::kNoRegion;
      terminated_ = false;
    }
  }

  void LowerStmtList(const std::vector<StmtPtr>& stmts) {
    for (const StmtPtr& s : stmts) LowerStmt(*s);
  }

  void LowerStmt(const Stmt& s) {
    EnsureOpenBlock();
    if (s.line > 0) fb_->SetLine(s.line);
    switch (s.kind) {
      case Stmt::Kind::kVarDecl: {
        if (locals_.count(s.name)) SemErr(s.line, "redeclaration of '" + s.name + "'");
        const SymbolId id = mod_.AddScalar(s.name, cur_fn_);
        mod_.symbol_mutable(id).decl_line = s.line;
        locals_[s.name] = id;
        if (s.value) {
          EnsureLeaf();
          fb_->EmitWriteVar(id, LowerExpr(*s.value));
        }
        break;
      }
      case Stmt::Kind::kArrayDecl: {
        if (locals_.count(s.name)) SemErr(s.line, "redeclaration of '" + s.name + "'");
        const SymbolId id = mod_.AddArray(s.name, s.array_len, cur_fn_);
        mod_.symbol_mutable(id).decl_line = s.line;
        locals_[s.name] = id;
        break;
      }
      case Stmt::Kind::kAssign: {
        EnsureLeaf();
        const SymbolId id = LookupVar(s.name, s.line);
        if (mod_.symbol(id).kind != ir::SymbolKind::kScalar) {
          SemErr(s.line, "'" + s.name + "' is not a scalar");
        }
        fb_->EmitWriteVar(id, LowerExpr(*s.value));
        break;
      }
      case Stmt::Kind::kStore: {
        EnsureLeaf();
        const SymbolId id = LookupVar(s.name, s.line);
        if (mod_.symbol(id).kind != ir::SymbolKind::kArray) {
          SemErr(s.line, "'" + s.name + "' is not an array");
        }
        const Operand idx = LowerExpr(*s.index);
        const Operand val = LowerExpr(*s.value);
        fb_->EmitStoreElem(id, idx, val);
        break;
      }
      case Stmt::Kind::kIf:
        LowerIf(s);
        break;
      case Stmt::Kind::kWhile:
        LowerLoop(s, /*is_for=*/false);
        break;
      case Stmt::Kind::kFor:
        LowerLoop(s, /*is_for=*/true);
        break;
      case Stmt::Kind::kReturn: {
        EnsureLeaf();
        if (s.value) {
          fb_->EmitRet(LowerExpr(*s.value));
        } else {
          fb_->EmitRet();
        }
        terminated_ = true;
        break;
      }
      case Stmt::Kind::kBreak: {
        if (loop_stack_.empty()) SemErr(s.line, "'break' outside a loop");
        EnsureLeaf();
        fb_->EmitBr(loop_stack_.back().break_target);
        terminated_ = true;
        break;
      }
      case Stmt::Kind::kContinue: {
        if (loop_stack_.empty()) SemErr(s.line, "'continue' outside a loop");
        EnsureLeaf();
        fb_->EmitBr(loop_stack_.back().continue_target);
        terminated_ = true;
        break;
      }
      case Stmt::Kind::kExpr: {
        EnsureLeaf();
        (void)LowerExpr(*s.value);
        break;
      }
    }
  }

  void LowerIf(const Stmt& s) {
    EnsureLeaf();
    const Operand cond = LowerExpr(*s.cond);
    const BlockId cond_block = fb_->current_block();

    const RegionId if_region =
        regions_.AddNode(RegionKind::kIfElse, cur_fn_, cur_seq_,
                         "if@" + std::to_string(s.line));
    const RegionId saved_seq = cur_seq_;

    const BlockId then_bb = fb_->NewBlock();
    const BlockId join_bb_placeholder = ir::kNoBlock;
    BlockId else_bb = join_bb_placeholder;

    // Then arm.
    const RegionId then_seq = regions_.AddNode(RegionKind::kSequence, cur_fn_, if_region,
                                               "then@" + std::to_string(s.line));
    fb_->SetBlock(then_bb);
    cur_seq_ = then_seq;
    open_leaf_ = ir::kNoRegion;
    terminated_ = false;
    LowerStmtList(s.body);
    const BlockId then_end = fb_->current_block();
    const bool then_terminated = terminated_;

    // Else arm (if any).
    BlockId else_end = ir::kNoBlock;
    bool else_terminated = false;
    if (!s.else_body.empty()) {
      else_bb = fb_->NewBlock();
      const RegionId else_seq = regions_.AddNode(
          RegionKind::kSequence, cur_fn_, if_region, "else@" + std::to_string(s.line));
      fb_->SetBlock(else_bb);
      cur_seq_ = else_seq;
      open_leaf_ = ir::kNoRegion;
      terminated_ = false;
      LowerStmtList(s.else_body);
      else_end = fb_->current_block();
      else_terminated = terminated_;
    }

    // Join block, owned by the parent region's next leaf.
    const BlockId join_bb = fb_->NewBlock();

    // Wire the condition branch.
    fb_->SetBlock(cond_block);
    fb_->EmitCondBr(cond, then_bb, s.else_body.empty() ? join_bb : else_bb);

    if (!then_terminated) {
      fb_->SetBlock(then_end);
      fb_->EmitBr(join_bb);
    }
    if (!s.else_body.empty() && !else_terminated) {
      fb_->SetBlock(else_end);
      fb_->EmitBr(join_bb);
    }

    cur_seq_ = saved_seq;
    fb_->SetBlock(join_bb);
    open_leaf_ = ir::kNoRegion;
    terminated_ = false;
  }

  void LowerLoop(const Stmt& s, bool is_for) {
    EnsureLeaf();

    const RegionId loop_region = regions_.AddNode(
        RegionKind::kLoop, cur_fn_, cur_seq_,
        std::string(is_for ? "for@" : "while@") + std::to_string(s.line));
    const RegionId saved_seq = cur_seq_;

    // The for-init belongs to the loop construct: it runs in a leading
    // block owned by the loop region, so a for-loop cluster is fully
    // self-contained (its counter is generated inside the cluster).
    // Init and step lower like any statement: with their leaf open and
    // the block unterminated, LowerStmt adds them to that leaf.
    if (is_for && s.init) {
      const BlockId init_bb = fb_->NewBlock();
      fb_->EmitBr(init_bb);
      fb_->SetBlock(init_bb);
      const RegionId init_leaf =
          regions_.AddNode(RegionKind::kLeaf, cur_fn_, loop_region, "init");
      regions_.AddBlock(init_leaf, init_bb);
      open_leaf_ = init_leaf;
      terminated_ = false;
      LowerStmt(*s.init);
    }

    const BlockId cond_bb = fb_->NewBlock();
    regions_.AddBlock(loop_region, cond_bb);
    fb_->EmitBr(cond_bb);

    // Condition block.
    fb_->SetBlock(cond_bb);
    Operand cond = Operand::Imm(1);
    if (s.cond) cond = LowerExpr(*s.cond);
    const BlockId cond_end = fb_->current_block();

    // Pre-create the body entry, the step block (for-loops) and the
    // exit block so break/continue have stable targets.
    const BlockId body_bb = fb_->NewBlock();
    const bool has_step = is_for && s.step != nullptr;
    const BlockId step_bb = has_step ? fb_->NewBlock() : ir::kNoBlock;
    const BlockId exit_bb = fb_->NewBlock();

    loop_stack_.push_back(LoopContext{has_step ? step_bb : cond_bb, exit_bb});

    // Body.
    const RegionId body_seq = regions_.AddNode(RegionKind::kSequence, cur_fn_, loop_region,
                                               "body@" + std::to_string(s.line));
    fb_->SetBlock(body_bb);
    cur_seq_ = body_seq;
    open_leaf_ = ir::kNoRegion;
    terminated_ = false;
    LowerStmtList(s.body);
    loop_stack_.pop_back();
    // The body's final block (e.g. an if-join) may still be unowned.
    if (!terminated_) EnsureLeaf();

    // for-step runs in its own block owned by the loop region, so the
    // scheduler sees it as part of the loop cluster. continue jumps
    // into it.
    if (has_step) {
      if (!terminated_) fb_->EmitBr(step_bb);
      fb_->SetBlock(step_bb);
      terminated_ = false;
      const RegionId step_leaf =
          regions_.AddNode(RegionKind::kLeaf, cur_fn_, loop_region, "step");
      regions_.AddBlock(step_leaf, step_bb);
      open_leaf_ = step_leaf;
      cur_seq_ = loop_region;
      LowerStmt(*s.step);
    }
    if (!terminated_) fb_->EmitBr(cond_bb);

    // Wire the condition branch into the exit.
    fb_->SetBlock(cond_end);
    fb_->EmitCondBr(cond, body_bb, exit_bb);

    cur_seq_ = saved_seq;
    fb_->SetBlock(exit_bb);
    open_leaf_ = ir::kNoRegion;
    terminated_ = false;
  }

  Operand Normalize01(Operand a) {
    // x -> (x != 0)
    return Operand::Vreg(fb_->EmitBinary(Opcode::kCmpNe, a, Operand::Imm(0)));
  }

  Operand LowerExpr(const Expr& e) {
    if (e.line > 0) fb_->SetLine(e.line);
    switch (e.kind) {
      case Expr::Kind::kInt:
        return Operand::Imm(e.value);
      case Expr::Kind::kVar: {
        const SymbolId id = LookupVar(e.name, e.line);
        if (mod_.symbol(id).kind != ir::SymbolKind::kScalar) {
          SemErr(e.line, "'" + e.name + "' is not a scalar");
        }
        return Operand::Vreg(fb_->EmitReadVar(id));
      }
      case Expr::Kind::kIndex: {
        const SymbolId id = LookupVar(e.name, e.line);
        if (mod_.symbol(id).kind != ir::SymbolKind::kArray) {
          SemErr(e.line, "'" + e.name + "' is not an array");
        }
        const Operand idx = LowerExpr(*e.args[0]);
        return Operand::Vreg(fb_->EmitLoadElem(id, idx));
      }
      case Expr::Kind::kUnary: {
        const Operand a = LowerExpr(*e.args[0]);
        switch (e.un_op) {
          case UnOp::kNeg:
            if (a.is_imm()) return Operand::Imm(WrapNeg(a.imm));
            return Operand::Vreg(fb_->EmitUnary(Opcode::kNeg, a));
          case UnOp::kBitNot:
            if (a.is_imm()) return Operand::Imm(~a.imm);
            return Operand::Vreg(fb_->EmitUnary(Opcode::kNot, a));
          case UnOp::kLogicalNot:
            return Operand::Vreg(
                fb_->EmitBinary(Opcode::kCmpEq, a, Operand::Imm(0)));
        }
        break;
      }
      case Expr::Kind::kBinary: {
        Operand a = LowerExpr(*e.args[0]);
        Operand b = LowerExpr(*e.args[1]);
        if (e.bin_op == BinOp::kLogicalAnd || e.bin_op == BinOp::kLogicalOr) {
          a = Normalize01(a);
          b = Normalize01(b);
        }
        const auto op = std::ranges::find(kBinaryOperators, e.bin_op, &BinaryOperator::op);
        return Operand::Vreg(fb_->EmitBinary(op->opcode, a, b));
      }
      case Expr::Kind::kCall: {
        // Builtins first.
        if (e.name == "min" || e.name == "max") {
          if (e.args.size() != 2) SemErr(e.line, e.name + "() takes two arguments");
          const Operand a = LowerExpr(*e.args[0]);
          const Operand b = LowerExpr(*e.args[1]);
          return Operand::Vreg(fb_->EmitBinary(
              e.name == "min" ? Opcode::kMin : Opcode::kMax, a, b));
        }
        if (e.name == "abs") {
          if (e.args.size() != 1) SemErr(e.line, "abs() takes one argument");
          const Operand a = LowerExpr(*e.args[0]);
          const Operand na = Operand::Vreg(fb_->EmitUnary(Opcode::kNeg, a));
          return Operand::Vreg(fb_->EmitBinary(Opcode::kMax, a, na));
        }
        const auto callee = mod_.FindFunction(e.name);
        if (!callee) SemErr(e.line, "call to undeclared function '" + e.name + "'");
        std::vector<Operand> args;
        args.reserve(e.args.size());
        for (const ExprPtr& a : e.args) args.push_back(LowerExpr(*a));
        return Operand::Vreg(
            fb_->EmitCall(mod_.function(*callee).symbol, std::move(args)));
      }
    }
    throw Error("unreachable expression kind");
  }

  ir::Module mod_;
  ir::RegionTree regions_;
  FunctionBuilder* fb_ = nullptr;
  ir::FunctionId cur_fn_ = -1;
  std::unordered_map<std::string, SymbolId> globals_;
  std::unordered_map<std::string, SymbolId> locals_;
  RegionId cur_seq_ = ir::kNoRegion;
  RegionId open_leaf_ = ir::kNoRegion;
  bool terminated_ = false;
  // Innermost-loop targets for break/continue.
  struct LoopContext {
    BlockId continue_target;
    BlockId break_target;
  };
  std::vector<LoopContext> loop_stack_;
};

}  // namespace

Result<LoweredProgram> CompileToResult(std::string_view source, int unroll_factor,
                                       int max_body_stmts) {
  DiagnosticSink sink;
  Program ast;
  try {
    ast = Parse(source, sink);
  } catch (const Error& e) {
    // Not a syntax error (those are recovered into the sink): an
    // injected fault or an internal invariant in the frontend.
    sink.AddError("parse.failed", e.what());
    return Result<LoweredProgram>::Failure(sink.Take());
  }
  if (sink.has_errors()) return Result<LoweredProgram>::Failure(sink.Take());
  try {
    if (unroll_factor > 1) UnrollLoops(ast, unroll_factor, max_body_stmts);
    LoweredProgram p = Lowerer().Run(ast);
    // Accumulate every structural violation (L1xx) into the sink instead
    // of throwing on the first — the driver reports them all in one pass.
    if (!ir::Verify(p.module, sink)) {
      return Result<LoweredProgram>::Failure(sink.Take());
    }
    return Result<LoweredProgram>(std::move(p), sink.Take());
  } catch (const SemanticError& e) {
    sink.AddError("lower.semantic", e.what(), SourceLoc{e.line, 1});
  } catch (const Error& e) {
    sink.AddError("lower.semantic", e.what());
  }
  return Result<LoweredProgram>::Failure(sink.Take());
}

LoweredProgram Compile(std::string_view source, int unroll_factor, int max_body_stmts) {
  return std::move(CompileToResult(source, unroll_factor, max_body_stmts).ValueOrThrow());
}

}  // namespace lopass::dsl
