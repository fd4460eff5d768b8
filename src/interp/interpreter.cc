#include "interp/interpreter.h"

#include <algorithm>

#include "common/error.h"
#include "ir/eval.h"

namespace lopass::interp {

using ir::Opcode;
using ir::Operand;
using ir::Symbol;
using ir::SymbolKind;

Interpreter::Interpreter(const ir::Module& module) : module_(module) {
  LOPASS_CHECK(module_.data_size_bytes() % 4 == 0, "data space must be word aligned");
  Reset();
}

void Interpreter::Reset() {
  memory_.assign(module_.data_size_bytes() / 4, 0);
  for (const Symbol& s : module_.symbols()) {
    if (s.kind == SymbolKind::kScalar && s.init != 0) {
      memory_[s.address / 4] = s.init;
    }
  }
  profile_.block_counts.clear();
  profile_.block_counts.resize(module_.num_functions());
  for (std::size_t f = 0; f < module_.num_functions(); ++f) {
    profile_.block_counts[f].assign(
        module_.function(static_cast<ir::FunctionId>(f)).blocks.size(), 0);
  }
  profile_.total_dynamic_ops = 0;
  profile_.call_count = 0;
  steps_ = 0;
}

void Interpreter::SetScalar(ir::SymbolId sym, std::int64_t value) {
  const Symbol& s = module_.symbol(sym);
  LOPASS_CHECK(s.kind == SymbolKind::kScalar, "SetScalar needs a scalar");
  memory_[s.address / 4] = value;
}

std::int64_t Interpreter::GetScalar(ir::SymbolId sym) const {
  const Symbol& s = module_.symbol(sym);
  LOPASS_CHECK(s.kind == SymbolKind::kScalar, "GetScalar needs a scalar");
  return memory_[s.address / 4];
}

void Interpreter::FillArray(ir::SymbolId sym, std::span<const std::int64_t> values) {
  const Symbol& s = module_.symbol(sym);
  LOPASS_CHECK(s.kind == SymbolKind::kArray, "FillArray needs an array");
  LOPASS_CHECK(values.size() <= s.length, "too many initializer values");
  std::copy(values.begin(), values.end(), memory_.begin() + s.address / 4);
}

std::int64_t Interpreter::GetArrayElem(ir::SymbolId sym, std::uint32_t index) const {
  const Symbol& s = module_.symbol(sym);
  LOPASS_CHECK(s.kind == SymbolKind::kArray, "GetArrayElem needs an array");
  LOPASS_CHECK(index < s.length, "array index out of range");
  return memory_[s.address / 4 + index];
}

namespace {
ir::SymbolId FindGlobal(const ir::Module& m, const std::string& name) {
  auto id = m.FindSymbol(name, -1);
  if (!id) throw Error("no global named '" + name + "'");
  return *id;
}

// Out of line: the step loop only tests its fuel.
[[noreturn]] void ThrowFuelError(std::uint64_t step_limit) {
  throw Error("interpreter fuel exhausted after " + std::to_string(step_limit) +
              " steps (non-terminating workload?)");
}
}  // namespace

void Interpreter::SetScalar(const std::string& name, std::int64_t value) {
  SetScalar(FindGlobal(module_, name), value);
}

void Interpreter::FillArray(const std::string& name, std::span<const std::int64_t> values) {
  FillArray(FindGlobal(module_, name), values);
}

std::int64_t Interpreter::GetScalar(const std::string& name) const {
  return GetScalar(FindGlobal(module_, name));
}

RunResult Interpreter::Run(const std::string& fn, std::span<const std::int64_t> args,
                           std::uint64_t max_steps) {
  const ir::FunctionId fid = module_.EntryFunction(fn);
  step_limit_ = max_steps;
  steps_ = 0;
  call_depth_ = 0;
  RunResult r;
  r.return_value = Exec(module_.function(fid), args);
  r.steps = steps_;
  return r;
}

std::int64_t Interpreter::Eval(const Operand& op, const std::vector<std::int64_t>& vregs) const {
  if (op.is_imm()) return op.imm;
  LOPASS_CHECK(op.vreg >= 0 && static_cast<std::size_t>(op.vreg) < vregs.size(),
               "vreg out of range");
  return vregs[static_cast<std::size_t>(op.vreg)];
}

std::int64_t Interpreter::Exec(const ir::Function& fn, std::span<const std::int64_t> args) {
  LOPASS_CHECK(args.size() == fn.params.size(), "argument count mismatch");
  if (++call_depth_ > 64) throw Error("call depth limit exceeded (recursion?)");
  ++profile_.call_count;

  for (std::size_t i = 0; i < args.size(); ++i) {
    memory_[module_.symbol(fn.params[i]).address / 4] = args[i];
  }

  std::vector<std::int64_t> vregs(static_cast<std::size_t>(fn.next_vreg), 0);
  ir::BlockId cur = fn.entry;
  std::int64_t ret = 0;

  for (;;) {
    ++profile_.block_counts[static_cast<std::size_t>(fn.id)][static_cast<std::size_t>(cur)];
    const ir::BasicBlock& bb = fn.block(cur);
    bool jumped = false;
    for (const ir::Instr& in : bb.instrs) {
      if (++steps_ > step_limit_) ThrowFuelError(step_limit_);
      ++profile_.total_dynamic_ops;
      switch (in.op) {
        case Opcode::kConst:
          vregs[static_cast<std::size_t>(in.result)] = in.args[0].imm;
          break;
        case Opcode::kMov:
          vregs[static_cast<std::size_t>(in.result)] = Eval(in.args[0], vregs);
          break;
        case Opcode::kReadVar: {
          const Symbol& s = module_.symbol(in.sym);
          vregs[static_cast<std::size_t>(in.result)] = memory_[s.address / 4];
          break;
        }
        case Opcode::kWriteVar: {
          const Symbol& s = module_.symbol(in.sym);
          memory_[s.address / 4] = Eval(in.args[0], vregs);
          break;
        }
        case Opcode::kLoadElem: {
          const Symbol& s = module_.symbol(in.sym);
          const std::int64_t idx = Eval(in.args[0], vregs);
          if (idx < 0 || idx >= static_cast<std::int64_t>(s.length)) {
            ir::ThrowIndexError(in.op, s.name, idx, s.length);
          }
          const std::uint32_t addr = s.address + static_cast<std::uint32_t>(idx) * 4;
          vregs[static_cast<std::size_t>(in.result)] = memory_[addr / 4];
          break;
        }
        case Opcode::kStoreElem: {
          const Symbol& s = module_.symbol(in.sym);
          const std::int64_t idx = Eval(in.args[0], vregs);
          if (idx < 0 || idx >= static_cast<std::int64_t>(s.length)) {
            ir::ThrowIndexError(in.op, s.name, idx, s.length);
          }
          const std::uint32_t addr = s.address + static_cast<std::uint32_t>(idx) * 4;
          memory_[addr / 4] = Eval(in.args[1], vregs);
          break;
        }
        case Opcode::kCall: {
          const auto callee = ir::CalleeOf(module_, in);
          LOPASS_CHECK(callee.has_value(), "call target missing");
          std::vector<std::int64_t> call_args;
          call_args.reserve(in.args.size());
          for (const Operand& a : in.args) call_args.push_back(Eval(a, vregs));
          vregs[static_cast<std::size_t>(in.result)] =
              Exec(module_.function(*callee), call_args);
          break;
        }
        case Opcode::kRet:
          ret = in.args.empty() ? 0 : Eval(in.args[0], vregs);
          --call_depth_;
          return ret;
        case Opcode::kBr:
          cur = in.target0;
          jumped = true;
          break;
        case Opcode::kCondBr:
          cur = Eval(in.args[0], vregs) != 0 ? in.target0 : in.target1;
          jumped = true;
          break;
        default: {  // every other op is pure arithmetic (ir::IsPure)
          const std::int64_t a = Eval(in.args[0], vregs);
          const std::int64_t b = in.args.size() > 1 ? Eval(in.args[1], vregs) : 0;
          vregs[static_cast<std::size_t>(in.result)] = ir::EvalPure(in.op, a, b);
          break;
        }
      }
      if (jumped) break;
    }
    LOPASS_CHECK(jumped, "block fell through without terminator");
  }
}

}  // namespace lopass::interp
