#include "ir/opcode.h"

#include <string>

#include "common/error.h"
#include "ir/eval.h"

namespace lopass::ir {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kConst: return "const";
    case Opcode::kMov: return "mov";
    case Opcode::kReadVar: return "readvar";
    case Opcode::kWriteVar: return "writevar";
    case Opcode::kLoadElem: return "loadelem";
    case Opcode::kStoreElem: return "storeelem";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kMod: return "mod";
    case Opcode::kNeg: return "neg";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kNot: return "not";
    case Opcode::kShl: return "shl";
    case Opcode::kShr: return "shr";
    case Opcode::kSar: return "sar";
    case Opcode::kCmpEq: return "cmpeq";
    case Opcode::kCmpNe: return "cmpne";
    case Opcode::kCmpLt: return "cmplt";
    case Opcode::kCmpLe: return "cmple";
    case Opcode::kCmpGt: return "cmpgt";
    case Opcode::kCmpGe: return "cmpge";
    case Opcode::kMin: return "min";
    case Opcode::kMax: return "max";
    case Opcode::kCall: return "call";
    case Opcode::kRet: return "ret";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "condbr";
  }
  return "?";
}

int OpcodeArity(Opcode op) {
  switch (op) {
    case Opcode::kConst:
    case Opcode::kReadVar:
    case Opcode::kBr:
      return 0;
    case Opcode::kMov:
    case Opcode::kWriteVar:
    case Opcode::kLoadElem:
    case Opcode::kNeg:
    case Opcode::kNot:
    case Opcode::kCondBr:
      return 1;
    case Opcode::kStoreElem:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSar:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
    case Opcode::kMin:
    case Opcode::kMax:
      return 2;
    case Opcode::kRet:
      return -1;  // 0 or 1
    case Opcode::kCall:
      return -1;  // variadic
  }
  return -1;
}

bool IsTerminator(Opcode op) {
  return op == Opcode::kRet || op == Opcode::kBr || op == Opcode::kCondBr;
}

bool IsBinaryArith(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSar:
    case Opcode::kMin:
    case Opcode::kMax:
      return true;
    default:
      return false;
  }
}

bool IsComparison(Opcode op) {
  switch (op) {
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
      return true;
    default:
      return false;
  }
}

bool IsPure(Opcode op) {
  return op == Opcode::kConst || op == Opcode::kMov || op == Opcode::kNeg ||
         op == Opcode::kNot || IsBinaryArith(op) || IsComparison(op);
}

void ThrowEvalError(Opcode op) {
  if (op == Opcode::kDiv) throw Error("division by zero");
  if (op == Opcode::kMod) throw Error("modulo by zero");
  throw Error(std::string("cannot evaluate non-pure op '") + OpcodeName(op) + "'");
}

void ThrowIndexError(Opcode op, std::string_view array, std::int64_t index,
                     std::uint32_t length) {
  throw Error(std::string("array index out of range ") +
              (op == Opcode::kStoreElem ? "on store to '" : "on load of '") +
              std::string(array) + "' (" + std::to_string(index) + " of " +
              std::to_string(length) + ")");
}

bool ProducesResult(Opcode op) {
  switch (op) {
    case Opcode::kWriteVar:
    case Opcode::kStoreElem:
    case Opcode::kRet:
    case Opcode::kBr:
    case Opcode::kCondBr:
      return false;
    case Opcode::kCall:
      return true;  // may be unused; void calls use result vreg that is never read
    default:
      return true;
  }
}

}  // namespace lopass::ir
