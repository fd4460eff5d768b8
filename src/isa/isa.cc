#include "isa/isa.h"

#include <sstream>

#include "common/error.h"

namespace lopass::isa {

const char* SlOpName(SlOp op) {
  switch (op) {
    case SlOp::kNop: return "nop";
    case SlOp::kAdd: return "add";
    case SlOp::kSub: return "sub";
    case SlOp::kAnd: return "and";
    case SlOp::kOr: return "or";
    case SlOp::kXor: return "xor";
    case SlOp::kSll: return "sll";
    case SlOp::kSrl: return "srl";
    case SlOp::kSra: return "sra";
    case SlOp::kMul: return "mul";
    case SlOp::kDiv: return "div";
    case SlOp::kMod: return "mod";
    case SlOp::kMin: return "min";
    case SlOp::kMax: return "max";
    case SlOp::kSeq: return "seq";
    case SlOp::kSne: return "sne";
    case SlOp::kSlt: return "slt";
    case SlOp::kSle: return "sle";
    case SlOp::kSgt: return "sgt";
    case SlOp::kSge: return "sge";
    case SlOp::kLi: return "li";
    case SlOp::kLd: return "ld";
    case SlOp::kSt: return "st";
    case SlOp::kBeqz: return "beqz";
    case SlOp::kBnez: return "bnez";
    case SlOp::kJ: return "j";
    case SlOp::kCall: return "call";
    case SlOp::kRet: return "ret";
  }
  return "?";
}

InstrClass ClassOf(SlOp op) {
  switch (op) {
    case SlOp::kNop: return InstrClass::kNop;
    case SlOp::kSll:
    case SlOp::kSrl:
    case SlOp::kSra: return InstrClass::kShift;
    case SlOp::kMul: return InstrClass::kMul;
    case SlOp::kDiv:
    case SlOp::kMod: return InstrClass::kDiv;
    case SlOp::kLd: return InstrClass::kLoad;
    case SlOp::kSt: return InstrClass::kStore;
    case SlOp::kBeqz:
    case SlOp::kBnez: return InstrClass::kBranch;
    case SlOp::kJ:
    case SlOp::kRet: return InstrClass::kJump;
    case SlOp::kCall: return InstrClass::kCall;
    default: return InstrClass::kAlu;
  }
}

Cycles BaseCycles(SlOp op) {
  switch (op) {
    case SlOp::kMul: return 3;
    // SPARClite's radix-4 divide step unit.
    case SlOp::kDiv:
    case SlOp::kMod: return 8;
    case SlOp::kBeqz:
    case SlOp::kBnez: return 1;  // +1 if taken (accounted by the simulator)
    case SlOp::kJ: return 2;
    case SlOp::kCall: return 2;
    case SlOp::kRet: return 2;
    default: return 1;
  }
}

const FuncInfo& SlProgram::function(ir::FunctionId fn) const {
  for (const FuncInfo& f : functions) {
    if (f.fn == fn) return f;
  }
  throw Error("SL32 program has no function with id " + std::to_string(fn));
}

std::string ToString(const SlProgram& p) {
  std::ostringstream os;
  for (const FuncInfo& f : p.functions) {
    os << f.name << ":  ; entry=" << f.entry << " spill=" << f.spill_words << "w\n";
    for (std::uint32_t i = f.entry; i < f.end; ++i) {
      const SlInstr& in = p.code[i];
      os << "  " << i << ": " << SlOpName(in.op);
      switch (in.op) {
        case SlOp::kNop:
        case SlOp::kRet:
          break;
        case SlOp::kLi:
          os << " r" << in.rd << ", " << in.imm;
          break;
        case SlOp::kLd:
          os << " r" << in.rd << ", [r" << in.rs1 << '+' << in.imm << ']';
          break;
        case SlOp::kSt:
          os << " r" << in.rd << ", [r" << in.rs1 << '+' << in.imm << ']';
          break;
        case SlOp::kBeqz:
        case SlOp::kBnez:
          os << " r" << in.rs1 << ", @" << in.target;
          break;
        case SlOp::kJ:
        case SlOp::kCall:
          os << " @" << in.target;
          break;
        default:
          os << " r" << in.rd << ", r" << in.rs1 << ", ";
          if (in.use_imm) {
            os << in.imm;
          } else {
            os << 'r' << in.rs2;
          }
      }
      os << "   ; bb" << in.block << '\n';
    }
  }
  return os.str();
}

}  // namespace lopass::isa
