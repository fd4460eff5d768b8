#include "ir/verify.h"

#include <sstream>
#include <unordered_set>
#include <vector>

namespace lopass::ir {

namespace {

// Emits one L1xx finding. Locations: the instruction's DSL line when
// known; the message always names function/block/instr so findings in
// programmatic IR (line 0) stay actionable.
class Reporter {
 public:
  explicit Reporter(DiagnosticSink& sink) : sink_(sink) {}

  void Add(const char* code, const Function& f, BlockId b, std::size_t idx, int line,
           const std::string& msg) {
    std::ostringstream os;
    os << "function '" << f.name << "', block " << b << ", instr " << idx << ": " << msg;
    sink_.AddError(code, os.str(), SourceLoc{line, line > 0 ? 1 : 0});
    ++errors_;
  }

  void AddFn(const char* code, const std::string& msg) {
    sink_.AddError(code, msg);
    ++errors_;
  }

  std::size_t errors() const { return errors_; }

 private:
  DiagnosticSink& sink_;
  std::size_t errors_ = 0;
};

bool ValidSymbol(const Module& m, SymbolId sym) {
  return sym >= 0 && static_cast<std::size_t>(sym) < m.num_symbols();
}

void VerifyFunction(const Module& m, const Function& f, Reporter& rep) {
  if (f.blocks.empty()) {
    rep.AddFn("L101", "function '" + f.name + "' has no blocks");
    return;
  }
  if (f.entry == kNoBlock || static_cast<std::size_t>(f.entry) >= f.blocks.size()) {
    rep.AddFn("L101", "function '" + f.name + "' has no valid entry block");
  }
  for (const BasicBlock& b : f.blocks) {
    if (b.instrs.empty() || !IsTerminator(b.instrs.back().op)) {
      rep.Add("L102", f, b.id, b.instrs.size(),
              b.instrs.empty() ? 0 : b.instrs.back().line,
              "block does not end in a terminator");
    }
    std::unordered_set<VregId> defined;
    for (std::size_t i = 0; i < b.instrs.size(); ++i) {
      const Instr& in = b.instrs[i];
      if (IsTerminator(in.op) && i + 1 != b.instrs.size()) {
        rep.Add("L103", f, b.id, i, in.line, "terminator in the middle of a block");
      }
      const int arity = OpcodeArity(in.op);
      if (arity >= 0 && static_cast<int>(in.args.size()) != arity) {
        rep.Add("L104", f, b.id, i, in.line,
                std::string("wrong arity for ") + OpcodeName(in.op));
      }
      if (in.op == Opcode::kRet && in.args.size() > 1) {
        rep.Add("L104", f, b.id, i, in.line, "ret takes at most one operand");
      }
      for (const Operand& a : in.args) {
        if (!a.is_vreg()) continue;
        if (a.vreg < 0 || a.vreg >= f.next_vreg) {
          rep.Add("L105", f, b.id, i, in.line, "operand vreg out of range");
        } else if (!defined.count(a.vreg)) {
          rep.Add("L106", f, b.id, i, in.line,
                  "vreg used before defined within block (cross-block vreg "
                  "liveness is not allowed; use variables)");
        }
      }
      if (in.result != kNoVreg) defined.insert(in.result);

      // Branch targets.
      if (in.op == Opcode::kBr || in.op == Opcode::kCondBr) {
        auto check_target = [&](BlockId t) {
          if (t < 0 || static_cast<std::size_t>(t) >= f.blocks.size()) {
            rep.Add("L107", f, b.id, i, in.line, "branch target out of range");
          }
        };
        check_target(in.target0);
        if (in.op == Opcode::kCondBr) check_target(in.target1);
      }

      // Symbol references. Guard the id range first so a corrupt id is
      // itself a finding instead of a thrown LOPASS_CHECK — later
      // passes rely on every reported module being safely walkable.
      switch (in.op) {
        case Opcode::kReadVar:
        case Opcode::kWriteVar:
          if (!ValidSymbol(m, in.sym) || m.symbol(in.sym).kind != SymbolKind::kScalar) {
            rep.Add("L108", f, b.id, i, in.line, "readvar/writevar needs a scalar symbol");
          }
          break;
        case Opcode::kLoadElem:
        case Opcode::kStoreElem:
          if (!ValidSymbol(m, in.sym) || m.symbol(in.sym).kind != SymbolKind::kArray) {
            rep.Add("L109", f, b.id, i, in.line, "loadelem/storeelem needs an array symbol");
          }
          break;
        case Opcode::kCall: {
          if (!ValidSymbol(m, in.sym) || m.symbol(in.sym).kind != SymbolKind::kFunction) {
            rep.Add("L110", f, b.id, i, in.line, "call needs a function symbol");
            break;
          }
          const auto callee = CalleeOf(m, in);
          if (!callee) {
            rep.Add("L110", f, b.id, i, in.line, "call target has no body");
            break;
          }
          const Function& cf = m.function(*callee);
          if (cf.params.size() != in.args.size()) {
            rep.Add("L111", f, b.id, i, in.line,
                    "call arity does not match callee parameter count");
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

// Functions are statically allocated, so a call must never reach its
// caller again. Reports every call whose callee reaches the caller.
void VerifyNoRecursion(const Module& m, Reporter& rep) {
  std::vector<std::vector<FunctionId>> callees(m.num_functions());
  for (const Function& f : m.functions()) {
    for (const BasicBlock& b : f.blocks) {
      for (const Instr& in : b.instrs) {
        if (in.op != Opcode::kCall) continue;
        if (const auto callee = CalleeOf(m, in)) callees[f.id].push_back(*callee);
      }
    }
  }
  const auto reaches = [&](FunctionId from, FunctionId to) {
    std::vector<bool> seen(callees.size(), false);
    std::vector<FunctionId> stack{from};
    while (!stack.empty()) {
      const FunctionId f = stack.back();
      stack.pop_back();
      if (f == to) return true;
      if (seen[f]) continue;
      seen[f] = true;
      stack.insert(stack.end(), callees[f].begin(), callees[f].end());
    }
    return false;
  };
  for (const Function& f : m.functions()) {
    for (const BasicBlock& b : f.blocks) {
      for (std::size_t i = 0; i < b.instrs.size(); ++i) {
        const Instr& in = b.instrs[i];
        const auto callee = in.op == Opcode::kCall ? CalleeOf(m, in) : std::nullopt;
        if (!callee || !reaches(*callee, f.id)) continue;
        rep.Add("L112", f, b.id, i, in.line,
                "recursive call to '" + m.function(*callee).name +
                    "' (functions are statically allocated)");
      }
    }
  }
}

}  // namespace

bool Verify(const Module& m, DiagnosticSink& sink) {
  Reporter rep(sink);
  if (m.num_functions() == 0) {
    rep.AddFn("L100", "module has no functions");
  }
  for (const Function& f : m.functions()) VerifyFunction(m, f, rep);
  VerifyNoRecursion(m, rep);
  return rep.errors() == 0;
}

void VerifyOrThrow(const Module& m) {
  DiagnosticSink sink;
  if (!Verify(m, sink)) {
    throw Error("IR verification failed:\n" + sink.ToString());
  }
}

}  // namespace lopass::ir
