#include "ir/print.h"

#include <sstream>

namespace lopass::ir {

std::string ToString(const Module& m, const Instr& in) {
  std::ostringstream os;
  if (in.result != kNoVreg) os << '%' << in.result << " = ";
  os << OpcodeName(in.op);
  if (in.sym != kNoSymbol) os << ' ' << m.symbol(in.sym).name;
  for (const Operand& a : in.args) {
    os << ' ';
    if (a.is_imm()) {
      os << a.imm;
    } else {
      os << '%' << a.vreg;
    }
  }
  if (in.op == Opcode::kBr) os << " ->bb" << in.target0;
  if (in.op == Opcode::kCondBr) os << " ->bb" << in.target0 << " ->bb" << in.target1;
  return os.str();
}

std::string ToString(const Module& m, const Function& f) {
  std::ostringstream os;
  os << "func " << f.name << '(';
  for (std::size_t i = 0; i < f.params.size(); ++i) {
    if (i) os << ", ";
    os << m.symbol(f.params[i]).name;
  }
  os << ") entry=bb" << f.entry << '\n';
  for (const BasicBlock& b : f.blocks) {
    os << "bb" << b.id << ":\n";
    for (const Instr& in : b.instrs) os << "  " << ToString(m, in) << '\n';
  }
  return os.str();
}

std::string ToString(const Module& m) {
  std::ostringstream os;
  for (const Symbol& s : m.symbols()) {
    if (s.kind == SymbolKind::kArray) {
      os << "array " << s.name << '[' << s.length << "] @" << s.address << '\n';
    } else if (s.kind == SymbolKind::kScalar && s.owner == -1) {
      os << "global " << s.name << " @" << s.address << '\n';
    }
  }
  for (const Function& f : m.functions()) os << ToString(m, f);
  return os.str();
}

}  // namespace lopass::ir
