#include "analysis/dataflow_lint.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/dataflow.h"
#include "ir/eval.h"

namespace lopass::analysis {

using ir::BlockId;
using ir::FunctionId;
using ir::Opcode;
using ir::SymbolId;

namespace {

SourceLoc LocOf(int line) { return SourceLoc{line, line > 0 ? 1 : 0}; }

// First reference (line of first read / first write) per symbol across
// the whole module, and the call-site count per function.
struct ModuleRefs {
  std::unordered_map<SymbolId, int> first_read;   // sym -> line
  std::unordered_map<SymbolId, int> first_write;  // sym -> line
  std::unordered_map<FunctionId, int> call_sites;
};

ModuleRefs CollectRefs(const ir::Module& m) {
  ModuleRefs refs;
  auto note = [](std::unordered_map<SymbolId, int>& map, SymbolId s, int line) {
    auto [it, inserted] = map.emplace(s, line);
    if (!inserted && it->second == 0 && line > 0) it->second = line;
  };
  for (const ir::Function& f : m.functions()) {
    for (const ir::BasicBlock& b : f.blocks) {
      for (const ir::Instr& in : b.instrs) {
        switch (in.op) {
          case Opcode::kReadVar:
          case Opcode::kLoadElem:
            note(refs.first_read, in.sym, in.line);
            break;
          case Opcode::kWriteVar:
          case Opcode::kStoreElem:
            note(refs.first_write, in.sym, in.line);
            break;
          case Opcode::kCall: {
            const auto callee = ir::CalleeOf(m, in);
            if (callee) ++refs.call_sites[*callee];
            break;
          }
          default:
            break;
        }
      }
    }
  }
  return refs;
}

bool IsParam(const ir::Function& f, SymbolId s) {
  return std::find(f.params.begin(), f.params.end(), s) != f.params.end();
}

// --- L200 / L202 / L203 / L206: reference census ----------------------

void LintReferences(const ir::Module& m, const ModuleRefs& refs,
                    const std::string& entry, DiagnosticSink& sink) {
  for (const ir::Symbol& s : m.symbols()) {
    if (s.kind == ir::SymbolKind::kFunction) continue;
    const bool read = refs.first_read.count(s.id) > 0;
    const bool written = refs.first_write.count(s.id) > 0;
    const bool is_param =
        s.owner >= 0 && IsParam(m.function(s.owner), s.id);
    if (is_param) continue;  // written implicitly at every call site

    if (!read && !written) {
      const char* code = s.kind == ir::SymbolKind::kArray ? "L203" : "L202";
      const char* what = s.kind == ir::SymbolKind::kArray ? "array" : "variable";
      std::ostringstream os;
      os << what << " '" << s.name << "' is never used";
      sink.AddWarning(code, os.str(), LocOf(s.decl_line));
      continue;
    }
    // L200: a read local scalar with no assignment anywhere. Globals
    // are exempt — they carry initializers and workloads populate them
    // externally; locals start zeroed but a never-written local read is
    // almost always a logic error.
    if (s.kind == ir::SymbolKind::kScalar && s.owner >= 0 && read && !written) {
      std::ostringstream os;
      os << "local variable '" << s.name << "' is read but never assigned";
      sink.AddWarning("L200", os.str(), LocOf(refs.first_read.at(s.id)));
    }
  }

  for (const ir::Function& f : m.functions()) {
    if (f.name == entry) continue;
    if (refs.call_sites.count(f.id)) continue;
    std::ostringstream os;
    os << "function '" << f.name << "' is never called";
    sink.AddWarning("L206", os.str(), LocOf(m.symbol(f.symbol).decl_line));
  }
}

// --- L204: reachability ------------------------------------------------

// Lowering scaffolding: blocks carrying no user operations (only bare
// branches or a valueless return) — join/bridge blocks the frontend
// fabricates. Unreachable ones are structural noise, not user code.
bool IsScaffolding(const ir::BasicBlock& b) {
  for (const ir::Instr& in : b.instrs) {
    if (in.op == Opcode::kBr) continue;
    if (in.op == Opcode::kRet && in.args.empty()) continue;
    return false;
  }
  return true;
}

void LintReachability(const ir::Function& f, DiagnosticSink& sink) {
  if (f.blocks.empty() || f.entry == ir::kNoBlock) return;
  std::vector<char> reached(f.blocks.size(), 0);
  std::vector<BlockId> stack{f.entry};
  while (!stack.empty()) {
    const BlockId b = stack.back();
    stack.pop_back();
    if (b < 0 || static_cast<std::size_t>(b) >= f.blocks.size()) continue;
    if (reached[static_cast<std::size_t>(b)]) continue;
    reached[static_cast<std::size_t>(b)] = 1;
    const ir::BasicBlock& bb = f.blocks[static_cast<std::size_t>(b)];
    if (bb.instrs.empty() || !ir::IsTerminator(bb.instrs.back().op)) continue;
    for (BlockId s : bb.successors()) stack.push_back(s);
  }
  for (const ir::BasicBlock& b : f.blocks) {
    if (reached[static_cast<std::size_t>(b.id)]) continue;
    if (b.instrs.empty() || IsScaffolding(b)) continue;
    std::ostringstream os;
    os << "unreachable code in function '" << f.name << "' (block " << b.id << ")";
    sink.AddWarning("L204", os.str(), LocOf(b.instrs.front().line));
  }
}

// --- L205 / L207: per-block constant propagation -----------------------
//
// One forward walk per block tracks which vregs hold compile-time
// constants — and, where the arithmetic folds, their concrete values
// (computed by ir::EvalPure, the evaluator the interpreter runs, so the
// proof matches what would actually execute; division by zero is
// constant but has no value). Const-ness feeds the constant-branch lint
// (L205); concrete values feed the array-bounds proof (L207).

void LintBlockConstants(const ir::Module& m, const ir::Function& f,
                        DiagnosticSink& sink) {
  for (const ir::BasicBlock& b : f.blocks) {
    // Vregs that are compile-time constants within this block; the
    // mapped value is the folded constant where determinable.
    std::unordered_map<ir::VregId, std::optional<std::int64_t>> consts;
    auto is_known = [&](const ir::Operand& a) {
      return a.is_imm() || (a.is_vreg() && consts.count(a.vreg));
    };
    auto value_of = [&](const ir::Operand& a) -> std::optional<std::int64_t> {
      if (a.is_imm()) return a.imm;
      if (a.is_vreg()) {
        const auto it = consts.find(a.vreg);
        if (it != consts.end()) return it->second;
      }
      return std::nullopt;
    };
    for (const ir::Instr& in : b.instrs) {
      // L207: a constant array index must stay inside the declared
      // length (the interpreter would fault; the schedulers and the
      // bus-traffic model would silently mis-estimate).
      if ((in.op == Opcode::kLoadElem || in.op == Opcode::kStoreElem) &&
          !in.args.empty() && in.sym != ir::kNoSymbol) {
        const std::optional<std::int64_t> idx = value_of(in.args[0]);
        const ir::Symbol& s = m.symbol(in.sym);
        if (idx.has_value() && s.kind == ir::SymbolKind::kArray &&
            (*idx < 0 || *idx >= static_cast<std::int64_t>(s.length))) {
          std::ostringstream os;
          os << "constant index " << *idx << " is out of bounds for array '"
             << s.name << "' of length " << s.length;
          sink.AddWarning("L207", os.str(), LocOf(in.line));
        }
        continue;
      }
      if (in.op == Opcode::kCondBr) {
        if (in.args.empty()) continue;  // L104 territory
        if (is_known(in.args[0])) {
          std::ostringstream os;
          os << "branch condition in function '" << f.name
             << "' is constant — the branch always goes the same way";
          sink.AddWarning("L205", os.str(), LocOf(in.line));
        }
        continue;
      }
      if (in.result == ir::kNoVreg) continue;
      if (ir::IsPure(in.op) && std::all_of(in.args.begin(), in.args.end(), is_known)) {
        const std::optional<std::int64_t> a = value_of(in.args[0]);
        const std::optional<std::int64_t> b =
            in.args.size() > 1 ? value_of(in.args[1]) : std::optional<std::int64_t>(0);
        consts[in.result] = a && b && !ir::Traps(in.op, *b)
                                ? std::optional(ir::EvalPure(in.op, *a, *b))
                                : std::nullopt;
      }
    }
  }
}

// --- L201: dead stores (liveness with the persistence edge) ------------

void LintDeadStores(const ir::Module& m, const ir::Function& f,
                    core::FunctionSummaries& summaries, DiagnosticSink& sink) {
  if (f.blocks.empty() || f.entry == ir::kNoBlock) return;

  // Scalars tracked precisely; arrays are element-granular and never
  // killed, so they need no liveness at all here.
  std::unordered_set<SymbolId> globals;  // global scalars: live at exit
  for (const ir::Symbol& s : m.symbols()) {
    if (s.kind == ir::SymbolKind::kScalar && s.owner < 0) globals.insert(s.id);
  }
  auto is_local_scalar = [&](SymbolId s) {
    return s >= 0 && static_cast<std::size_t>(s) < m.num_symbols() &&
           m.symbol(s).kind == ir::SymbolKind::kScalar && m.symbol(s).owner == f.id;
  };

  const std::size_t nblocks = f.blocks.size();
  std::vector<std::unordered_set<SymbolId>> live_in(nblocks), live_out(nblocks);

  // Backward transfer of one block starting from `live`; optionally
  // reports dead stores.
  auto transfer = [&](const ir::BasicBlock& b, std::unordered_set<SymbolId> live,
                      bool report) {
    for (auto it = b.instrs.rbegin(); it != b.instrs.rend(); ++it) {
      const ir::Instr& in = *it;
      switch (in.op) {
        case Opcode::kWriteVar:
          if (report && is_local_scalar(in.sym) && !IsParam(f, in.sym) &&
              !live.count(in.sym)) {
            std::ostringstream os;
            os << "value stored to '" << m.symbol(in.sym).name << "' is never read";
            sink.AddWarning("L201", os.str(), LocOf(in.line));
          }
          live.erase(in.sym);
          break;
        case Opcode::kReadVar:
        case Opcode::kLoadElem:
          live.insert(in.sym);
          break;
        case Opcode::kCall: {
          // The callee may read anything in its use closure; kill
          // nothing (its writes are conditional from here).
          const auto callee = ir::CalleeOf(m, in);
          if (callee) {
            const auto& use = summaries.Of(*callee).use;
            live.insert(use.begin(), use.end());
          }
          break;
        }
        default:
          break;
      }
    }
    return live;
  };

  // Fixpoint. Exit blocks see every global scalar live plus — the
  // persistence edge — the locals live at function entry (statics carry
  // values into the next invocation).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = nblocks; i-- > 0;) {
      const ir::BasicBlock& b = f.blocks[i];
      std::unordered_set<SymbolId> out;
      const bool has_term = !b.instrs.empty() && ir::IsTerminator(b.instrs.back().op);
      if (has_term && b.instrs.back().op == Opcode::kRet) {
        out = globals;
        for (SymbolId s :
             live_in[static_cast<std::size_t>(f.entry)]) {
          if (is_local_scalar(s)) out.insert(s);
        }
      } else if (has_term) {
        for (BlockId s : b.successors()) {
          if (s < 0 || static_cast<std::size_t>(s) >= nblocks) continue;
          const auto& in_s = live_in[static_cast<std::size_t>(s)];
          out.insert(in_s.begin(), in_s.end());
        }
      }
      std::unordered_set<SymbolId> in = transfer(b, out, /*report=*/false);
      if (out != live_out[i]) {
        live_out[i] = std::move(out);
        changed = true;
      }
      if (in != live_in[i]) {
        live_in[i] = std::move(in);
        changed = true;
      }
    }
  }

  for (std::size_t i = 0; i < nblocks; ++i) {
    (void)transfer(f.blocks[i], live_out[i], /*report=*/true);
  }
}

}  // namespace

void RunDataflowLints(const ir::Module& module, const std::string& entry,
                      DiagnosticSink& sink) {
  const ModuleRefs refs = CollectRefs(module);
  LintReferences(module, refs, entry, sink);
  core::FunctionSummaries summaries(module);
  for (const ir::Function& f : module.functions()) {
    LintReachability(f, sink);
    LintBlockConstants(module, f, sink);
    LintDeadStores(module, f, summaries, sink);
  }
}

}  // namespace lopass::analysis
