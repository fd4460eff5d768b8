#include "iss/simulator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/fault.h"
#include "ir/eval.h"
#include "iss/accounting.h"

namespace lopass::iss {

using isa::SlInstr;
using isa::SlOp;

BlockCost SimResult::CostOfBlocks(
    const std::vector<std::pair<ir::FunctionId, ir::BlockId>>& blocks) const {
  BlockCost sum;
  for (const auto& [fn, b] : blocks) {
    const BlockCost& c = block_cost(fn, b);
    sum.cycles += c.cycles;
    sum.energy += c.energy;
    sum.instrs += c.instrs;
    for (std::size_t r = 0; r < sum.active_cycles.size(); ++r) {
      sum.active_cycles[r] += c.active_cycles[r];
    }
  }
  return sum;
}

double AverageUtilization(const std::array<std::uint64_t, kNumUpResources>& active_cycles,
                          Cycles cycles) {
  if (cycles == 0) return 0.0;
  double sum = 0.0;
  for (int r = 0; r < kNumAveragedUpResources; ++r) {
    sum += static_cast<double>(active_cycles[static_cast<std::size_t>(r)]) /
           static_cast<double>(cycles);
  }
  return sum / kNumAveragedUpResources;
}

Simulator::Simulator(const ir::Module& module, const isa::SlProgram& program,
                     SystemConfig config, const power::TechLibrary& lib,
                     const TiwariModel& energy)
    : module_(module), program_(program), config_(config), lib_(lib), energy_(energy) {
  Reset();
}

void Simulator::Reset() {
  memory_.assign(program_.data_size_bytes / 4 + 1, 0);
  for (const ir::Symbol& s : module_.symbols()) {
    if (s.kind == ir::SymbolKind::kScalar && s.init != 0) {
      memory_[s.address / 4] = s.init;
    }
  }
}

ir::SymbolId Simulator::FindGlobal(const std::string& name) const {
  auto id = module_.FindSymbol(name, -1);
  if (!id) throw Error("no global named '" + name + "'");
  return *id;
}

void Simulator::SetScalar(const std::string& name, std::int64_t value) {
  const ir::Symbol& s = module_.symbol(FindGlobal(name));
  if (s.kind != ir::SymbolKind::kScalar) {
    throw Error("global '" + name + "' is an array of " + std::to_string(s.length) +
                " elements, not a scalar");
  }
  memory_[s.address / 4] = value;
}

void Simulator::FillArray(const std::string& name, std::span<const std::int64_t> values) {
  const ir::Symbol& s = module_.symbol(FindGlobal(name));
  if (s.kind != ir::SymbolKind::kArray) {
    throw Error("global '" + name + "' is a scalar, not an array");
  }
  if (values.size() > s.length) {
    throw Error(std::to_string(values.size()) + " values do not fit array '" + name +
                "' of " + std::to_string(s.length) + " elements");
  }
  std::copy(values.begin(), values.end(), memory_.begin() + s.address / 4);
}

std::int64_t Simulator::GetScalar(const std::string& name) const {
  return memory_[module_.symbol(FindGlobal(name)).address / 4];
}

namespace {

// The bounds check an `sll` of a dynamic index or the ld/st of a
// constant one carries (SlInstr::array): `index` must lie in the array.
void CheckIndex(const ir::Module& module, const SlInstr& in, std::int64_t index) {
  const ir::Symbol& a = module.symbol(in.array);
  if (index < 0 || index >= static_cast<std::int64_t>(a.length)) {
    ir::ThrowIndexError(in.array_access, a.name, index, a.length);
  }
}

// Out of line: the execution loop only tests its fuel.
[[noreturn]] void ThrowFuelError(std::uint64_t max_instrs) {
  throw Error("simulator fuel exhausted after " + std::to_string(max_instrs) +
              " instructions (non-terminating workload?)");
}

// Writes a Trace (see its comment for the format) as the run goes.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t code_size) : predictors_(code_size) {}

  void RecordBranch(bool taken) {
    word_ |= static_cast<std::uint64_t>(taken) << bits_;
    if (++bits_ == 64) {
      trace_.taken.push_back(word_);
      word_ = 0;
      bits_ = 0;
    }
  }

  void RecordAddress(std::uint32_t pc, std::uint32_t address) {
    StridePredictor& p = predictors_[pc];
    const std::uint32_t predicted = p.Predict();
    if (address != predicted) {
      Leb128(access_ - next_free_);
      const std::uint32_t delta = address - predicted;
      Leb128((delta << 1) ^ (0u - (delta >> 31)));
      next_free_ = access_ + 1;
    }
    ++access_;
    p.Update(address);
  }

  Trace Finish(std::uint32_t entry_pc, std::int64_t return_value) {
    if (bits_ > 0) trace_.taken.push_back(word_);
    trace_.entry_pc = entry_pc;
    trace_.return_value = return_value;
    return std::move(trace_);
  }

 private:
  void Leb128(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) trace_.strides.push_back(static_cast<std::uint8_t>(v | 0x80));
    trace_.strides.push_back(static_cast<std::uint8_t>(v));
  }

  Trace trace_;
  std::uint64_t word_ = 0;
  int bits_ = 0;
  std::vector<StridePredictor> predictors_;
  std::uint64_t access_ = 0;     // ordinal of the next load or store
  std::uint64_t next_free_ = 0;  // one past the last one off its prediction
};

}  // namespace

Trace Simulator::Execute(const std::string& fn, std::span<const std::int64_t> args,
                         std::uint64_t max_instrs) {
  const ir::FunctionId fid = module_.EntryFunction(fn);
  const isa::FuncInfo& entry_fn = program_.function(fid);
  const ir::Function& entry_ir = module_.function(fid);
  if (args.size() != entry_ir.params.size()) {
    throw Error("function '" + fn + "' takes " + std::to_string(entry_ir.params.size()) +
                " argument(s), " + std::to_string(args.size()) + " given");
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    memory_[module_.symbol(entry_ir.params[i]).address / 4] = args[i];
  }

  const std::vector<SlInstr>& code = program_.code;
  const std::int64_t memory_bytes = static_cast<std::int64_t>(memory_.size() * 4);
  TraceRecorder trace(code.size());
  // regs[kZeroReg] is never written, so it always reads 0.
  std::array<std::int64_t, isa::kNumRegs> regs{};
  std::vector<std::uint32_t> call_stack;
  std::uint32_t pc = entry_fn.entry;
  std::uint64_t executed = 0;

  for (;;) {
    LOPASS_CHECK(pc < code.size(), "pc out of range");
    const SlInstr& in = code[pc];
    if (++executed > max_instrs) ThrowFuelError(max_instrs);

    auto rd_reg = [&](int idx) -> std::int64_t { return regs[static_cast<std::size_t>(idx)]; };
    auto wr_reg = [&](int idx, std::int64_t v) {
      if (idx != isa::kZeroReg) regs[static_cast<std::size_t>(idx)] = v;
    };
    auto src2 = [&]() -> std::int64_t {
      return in.use_imm ? in.imm : rd_reg(in.rs2);
    };

    std::uint32_t next_pc = pc + 1;
    switch (in.op) {
      case SlOp::kNop:
        break;
      case SlOp::kAdd: wr_reg(in.rd, WrapAdd(rd_reg(in.rs1), src2())); break;
      case SlOp::kSub: wr_reg(in.rd, WrapSub(rd_reg(in.rs1), src2())); break;
      case SlOp::kAnd: wr_reg(in.rd, rd_reg(in.rs1) & src2()); break;
      case SlOp::kOr: wr_reg(in.rd, rd_reg(in.rs1) | src2()); break;
      case SlOp::kXor: wr_reg(in.rd, rd_reg(in.rs1) ^ src2()); break;
      case SlOp::kSll:
        if (in.array != ir::kNoSymbol) CheckIndex(module_, in, rd_reg(in.rs1));
        wr_reg(in.rd, WrapShl(rd_reg(in.rs1), src2()));
        break;
      case SlOp::kSrl:
        wr_reg(in.rd, static_cast<std::int64_t>(
                          static_cast<std::uint64_t>(rd_reg(in.rs1)) >> (src2() & 63)));
        break;
      case SlOp::kSra: wr_reg(in.rd, rd_reg(in.rs1) >> (src2() & 63)); break;
      case SlOp::kMul: wr_reg(in.rd, WrapMul(rd_reg(in.rs1), src2())); break;
      case SlOp::kDiv: {
        const std::int64_t dv = src2();
        if (dv == 0) ir::ThrowEvalError(ir::Opcode::kDiv);
        wr_reg(in.rd, WrapDiv(rd_reg(in.rs1), dv));
        break;
      }
      case SlOp::kMod: {
        const std::int64_t dv = src2();
        if (dv == 0) ir::ThrowEvalError(ir::Opcode::kMod);
        wr_reg(in.rd, WrapMod(rd_reg(in.rs1), dv));
        break;
      }
      case SlOp::kMin: wr_reg(in.rd, std::min(rd_reg(in.rs1), src2())); break;
      case SlOp::kMax: wr_reg(in.rd, std::max(rd_reg(in.rs1), src2())); break;
      case SlOp::kSeq: wr_reg(in.rd, rd_reg(in.rs1) == src2()); break;
      case SlOp::kSne: wr_reg(in.rd, rd_reg(in.rs1) != src2()); break;
      case SlOp::kSlt: wr_reg(in.rd, rd_reg(in.rs1) < src2()); break;
      case SlOp::kSle: wr_reg(in.rd, rd_reg(in.rs1) <= src2()); break;
      case SlOp::kSgt: wr_reg(in.rd, rd_reg(in.rs1) > src2()); break;
      case SlOp::kSge: wr_reg(in.rd, rd_reg(in.rs1) >= src2()); break;
      case SlOp::kLi: wr_reg(in.rd, in.imm); break;
      case SlOp::kLd:
      case SlOp::kSt: {
        if (in.array != ir::kNoSymbol) CheckIndex(module_, in, in.array_index);
        const std::int64_t addr64 = WrapAdd(rd_reg(in.rs1), in.imm);
        LOPASS_CHECK(addr64 >= 0 && addr64 <= memory_bytes - 4, "data access out of range");
        const std::uint32_t addr = static_cast<std::uint32_t>(addr64);
        trace.RecordAddress(pc, addr);
        if (in.op == SlOp::kSt) {
          memory_[addr / 4] = rd_reg(in.rd);
        } else {
          wr_reg(in.rd, memory_[addr / 4]);
        }
        break;
      }
      case SlOp::kBeqz:
      case SlOp::kBnez: {
        const bool taken = (rd_reg(in.rs1) == 0) == (in.op == SlOp::kBeqz);
        trace.RecordBranch(taken);
        if (taken) next_pc = static_cast<std::uint32_t>(in.target);
        break;
      }
      case SlOp::kJ:
        next_pc = static_cast<std::uint32_t>(in.target);
        break;
      case SlOp::kCall:
        call_stack.push_back(pc + 1);
        next_pc = static_cast<std::uint32_t>(in.target);
        break;
      case SlOp::kRet:
        if (call_stack.empty()) return trace.Finish(entry_fn.entry, regs[isa::kRetValReg]);
        next_pc = call_stack.back();
        call_stack.pop_back();
        break;
    }
    pc = next_pc;
  }
}

SimResult Simulator::Run(const std::string& fn, std::span<const std::int64_t> args,
                         const HwPartition& partition, std::uint64_t max_instrs) {
  fault::MaybeInject("sim");
  const Accounting accounting(module_, program_, lib_, energy_);
  return accounting.Account(Execute(fn, args, max_instrs), partition, config_);
}

}  // namespace lopass::iss
