#include "opt/passes.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "ir/eval.h"
#include "ir/verify.h"

namespace lopass::opt {

using ir::BasicBlock;
using ir::Instr;
using ir::Opcode;
using ir::Operand;

std::string PassStats::ToString() const {
  std::ostringstream os;
  os << "folded=" << folded_ops << " operand-folds=" << folded_operands
     << " cse=" << cse_reused << " dce=" << dce_removed
     << " branches=" << branches_simplified;
  return os.str();
}

PassStats ConstantFold(ir::Module& module) {
  PassStats stats;
  for (ir::Function& fn : module.functions_mutable()) {
    for (BasicBlock& bb : fn.blocks) {
      // vreg -> known constant value within this block.
      std::unordered_map<ir::VregId, std::int64_t> known;
      // vreg -> canonical source vreg (copy propagation through movs).
      std::unordered_map<ir::VregId, ir::VregId> alias;
      auto canonical = [&](ir::VregId v) {
        auto it = alias.find(v);
        return it == alias.end() ? v : it->second;
      };
      for (Instr& in : bb.instrs) {
        // Propagate copies and constants into operand slots.
        for (Operand& a : in.args) {
          if (!a.is_vreg()) continue;
          const ir::VregId c = canonical(a.vreg);
          if (c != a.vreg) {
            a = Operand::Vreg(c);
            ++stats.folded_operands;
          }
          auto it = known.find(a.vreg);
          if (it != known.end()) {
            a = Operand::Imm(it->second);
            ++stats.folded_operands;
          }
        }
        switch (in.op) {
          case Opcode::kConst:
            known[in.result] = in.args[0].imm;
            break;
          case Opcode::kMov:
            if (in.args[0].is_imm()) {
              known[in.result] = in.args[0].imm;
              in.op = Opcode::kConst;
              ++stats.folded_ops;
            } else {
              alias[in.result] = canonical(in.args[0].vreg);
            }
            break;
          case Opcode::kCondBr:
            if (in.args[0].is_imm()) {
              const ir::BlockId target = in.args[0].imm != 0 ? in.target0 : in.target1;
              in.op = Opcode::kBr;
              in.args.clear();
              in.target0 = target;
              in.target1 = ir::kNoBlock;
              ++stats.branches_simplified;
            }
            break;
          default:
            if (ir::IsPure(in.op) &&
                std::all_of(in.args.begin(), in.args.end(),
                            [](const Operand& a) { return a.is_imm(); })) {
              const std::int64_t a = in.args[0].imm;
              const std::int64_t b = in.args.size() > 1 ? in.args[1].imm : 0;
              if (!ir::Traps(in.op, b)) {  // division by zero stays a runtime trap
                const std::int64_t v = ir::EvalPure(in.op, a, b);
                known[in.result] = v;
                in.op = Opcode::kConst;
                in.args = {Operand::Imm(v)};
                ++stats.folded_ops;
              }
            }
            break;
        }
      }
    }
  }
  return stats;
}

PassStats LocalCse(ir::Module& module) {
  PassStats stats;
  for (ir::Function& fn : module.functions_mutable()) {
    for (BasicBlock& bb : fn.blocks) {
      // Key: opcode | sym | operand list -> result vreg.
      struct Key {
        Opcode op;
        ir::SymbolId sym;
        std::vector<std::pair<bool, std::int64_t>> args;  // (is_imm, value/vreg)
        bool operator<(const Key& o) const {
          if (op != o.op) return op < o.op;
          if (sym != o.sym) return sym < o.sym;
          return args < o.args;
        }
      };
      std::map<Key, ir::VregId> available;
      // Invalidate readvar entries on writevar, loadelem entries on
      // storeelem of the same symbol.
      auto invalidate_sym = [&](Opcode op, ir::SymbolId sym) {
        for (auto it = available.begin(); it != available.end();) {
          if (it->first.op == op && it->first.sym == sym) {
            it = available.erase(it);
          } else {
            ++it;
          }
        }
      };

      for (Instr& in : bb.instrs) {
        const bool pure = ir::IsBinaryArith(in.op) || ir::IsComparison(in.op) ||
                          in.op == Opcode::kNeg || in.op == Opcode::kNot ||
                          in.op == Opcode::kReadVar || in.op == Opcode::kLoadElem;
        if (in.op == Opcode::kWriteVar) {
          invalidate_sym(Opcode::kReadVar, in.sym);
          continue;
        }
        if (in.op == Opcode::kStoreElem) {
          invalidate_sym(Opcode::kLoadElem, in.sym);
          continue;
        }
        if (in.op == Opcode::kCall) {
          // Calls may write any variable/array: flush everything that
          // depends on memory.
          for (auto it = available.begin(); it != available.end();) {
            if (it->first.op == Opcode::kReadVar || it->first.op == Opcode::kLoadElem) {
              it = available.erase(it);
            } else {
              ++it;
            }
          }
          continue;
        }
        if (!pure) continue;

        Key key;
        key.op = in.op;
        key.sym = in.sym;
        for (const Operand& a : in.args) {
          key.args.emplace_back(a.is_imm(), a.is_imm() ? a.imm : a.vreg);
        }
        auto it = available.find(key);
        if (it != available.end()) {
          // Replace with a copy of the earlier result.
          in.op = Opcode::kMov;
          in.sym = ir::kNoSymbol;
          in.args = {Operand::Vreg(it->second)};
          ++stats.cse_reused;
        } else {
          available.emplace(std::move(key), in.result);
        }
      }
    }
  }
  return stats;
}

PassStats DeadCodeElim(ir::Module& module) {
  PassStats stats;
  for (ir::Function& fn : module.functions_mutable()) {
    for (BasicBlock& bb : fn.blocks) {
      std::unordered_set<ir::VregId> used;
      for (const Instr& in : bb.instrs) {
        for (const Operand& a : in.args) {
          if (a.is_vreg()) used.insert(a.vreg);
        }
      }
      auto has_side_effect = [&module](const Instr& in) {
        switch (in.op) {
          case Opcode::kWriteVar:
          case Opcode::kStoreElem:
          case Opcode::kCall:
          case Opcode::kRet:
          case Opcode::kBr:
          case Opcode::kCondBr:
            return true;
          case Opcode::kDiv:
          case Opcode::kMod:
            // May trap on zero: keep unless the divisor is a nonzero
            // constant.
            return !(in.args[1].is_imm() && in.args[1].imm != 0);
          case Opcode::kLoadElem:
            // May trap on an out-of-range index: removable only when
            // the index is a constant provably inside the array.
            return !(in.args[0].is_imm() && in.args[0].imm >= 0 &&
                     in.args[0].imm <
                         static_cast<std::int64_t>(module.symbol(in.sym).length));
          default:
            return false;
        }
      };
      const std::size_t before = bb.instrs.size();
      bb.instrs.erase(
          std::remove_if(bb.instrs.begin(), bb.instrs.end(),
                         [&](const Instr& in) {
                           if (has_side_effect(in)) return false;
                           if (in.result == ir::kNoVreg) return false;
                           return !used.count(in.result);
                         }),
          bb.instrs.end());
      stats.dce_removed += before - bb.instrs.size();
    }
  }
  return stats;
}

PassStats RunStandardPasses(ir::Module& module) {
  constexpr int kMaxRounds = 4;
  PassStats total;
  for (int round = 0; round < kMaxRounds; ++round) {
    PassStats s;
    const PassStats f = ConstantFold(module);
    const PassStats c = LocalCse(module);
    const PassStats d = DeadCodeElim(module);
    s.folded_ops = f.folded_ops;
    s.folded_operands = f.folded_operands;
    s.branches_simplified = f.branches_simplified;
    s.cse_reused = c.cse_reused;
    s.dce_removed = d.dce_removed;
    total.folded_ops += s.folded_ops;
    total.folded_operands += s.folded_operands;
    total.branches_simplified += s.branches_simplified;
    total.cse_reused += s.cse_reused;
    total.dce_removed += s.dce_removed;
    if (s.total() == 0) break;
  }
  ir::VerifyOrThrow(module);
  return total;
}

}  // namespace lopass::opt
