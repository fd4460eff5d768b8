#include "iss/simulator.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/fault.h"
#include "ir/eval.h"

namespace lopass::iss {

using isa::InstrClass;
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

double SimResult::UtilizationOfBlocks(
    const std::vector<std::pair<ir::FunctionId, ir::BlockId>>& blocks) const {
  const BlockCost cost = CostOfBlocks(blocks);
  if (cost.cycles == 0) return 0.0;
  double sum = 0.0;
  for (int r = 0; r < kNumAveragedUpResources; ++r) {
    sum += static_cast<double>(cost.active_cycles[static_cast<std::size_t>(r)]) /
           static_cast<double>(cost.cycles);
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
  if (!id) LOPASS_THROW("no global named '" + name + "'");
  return *id;
}

void Simulator::SetScalar(const std::string& name, std::int64_t value) {
  memory_[module_.symbol(FindGlobal(name)).address / 4] = value;
}

void Simulator::FillArray(const std::string& name, std::span<const std::int64_t> values) {
  const ir::Symbol& s = module_.symbol(FindGlobal(name));
  LOPASS_CHECK(s.kind == ir::SymbolKind::kArray, "FillArray needs an array");
  LOPASS_CHECK(values.size() <= s.length, "too many initializer values");
  std::copy(values.begin(), values.end(), memory_.begin() + s.address / 4);
}

std::int64_t Simulator::GetScalar(const std::string& name) const {
  return memory_[module_.symbol(FindGlobal(name)).address / 4];
}

namespace {

// One pc of the per-run decode table: everything the hot loop charges
// or checks that does not depend on register values.
struct Decoded {
  InstrClass cls = InstrClass::kNop;
  int cluster = -1;            // ASIC cluster under the run's partition, -1 = SW
  std::uint32_t active_mask = 0;
  std::uint32_t fetch_address = 0;
  Cycles base_cycles = 0;
  Energy base_energy;
  BlockCost* cost = nullptr;   // the pc's block in SimResult::block_costs
};

// The bounds check an `sll` of a dynamic index or the ld/st of a
// constant one carries (SlInstr::array): `index` must lie in the array.
void CheckIndex(const ir::Module& module, const SlInstr& in, std::int64_t index) {
  const ir::Symbol& a = module.symbol(in.array);
  if (index < 0 || index >= static_cast<std::int64_t>(a.length)) {
    ir::ThrowIndexError(in.array_access, a.name, index, a.length);
  }
}

bool SameBlock(const SlInstr& a, const SlInstr& b) {
  return a.fn == b.fn && a.block == b.block;
}

// Block entries (BlockCost::entries). A block with code is entered
// exactly when its first pc executes, since calls return mid-block. A
// block without code (a lone `br` to the block after it) is entered by
// every control transfer that passes it on the way to the pc it
// reaches. A Pass is one such block of one transfer.
struct Pass {
  enum Via : std::uint8_t { kTaken, kFallThrough, kProgramEntry };
  std::uint32_t pc = 0;  // the transferring instruction (the entry pc for kProgramEntry)
  Via via = kTaken;      // taken: a branch taken, a jump or a call
  BlockCost* block = nullptr;
};

// The passes of every control transfer in `code`: the branch or jump
// targets, the fall-throughs out of a block, the calls and the program
// entry at `entry_pc`. Each walks from the IR block it transfers to,
// along the `br` of blocks without code, to the block of the pc it
// reaches.
std::vector<Pass> FindPasses(const ir::Module& module, const std::vector<SlInstr>& code,
                             std::uint32_t entry_pc,
                             std::vector<std::vector<BlockCost>>& costs) {
  std::vector<std::vector<std::int32_t>> first_pc(costs.size());
  for (std::size_t f = 0; f < costs.size(); ++f) first_pc[f].assign(costs[f].size(), -1);
  for (std::uint32_t pc = 0; pc < code.size(); ++pc) {
    if (pc > 0 && SameBlock(code[pc - 1], code[pc])) continue;
    std::int32_t& first = first_pc[static_cast<std::size_t>(code[pc].fn)]
                                  [static_cast<std::size_t>(code[pc].block)];
    LOPASS_CHECK(first < 0, "a block's code is not contiguous");
    first = static_cast<std::int32_t>(pc);
  }

  std::vector<Pass> passes;
  auto walk = [&](ir::FunctionId fn, ir::BlockId b, std::int32_t reached, Pass pass) {
    const ir::Function& f = module.function(fn);
    const std::vector<std::int32_t>& firsts = first_pc[static_cast<std::size_t>(fn)];
    for (std::size_t steps = 0;; ++steps) {
      LOPASS_CHECK(b >= 0 && static_cast<std::size_t>(b) < firsts.size() &&
                       steps < firsts.size(),
                   "a control transfer must reach a block of its function");
      if (firsts[static_cast<std::size_t>(b)] >= 0) break;
      const ir::Instr& br = f.block(b).terminator();
      LOPASS_CHECK(br.op == ir::Opcode::kBr,
                   "a block without code must fall through to its br target");
      pass.block = &costs[static_cast<std::size_t>(fn)][static_cast<std::size_t>(b)];
      passes.push_back(pass);
      b = br.target0;
    }
    LOPASS_CHECK(firsts[static_cast<std::size_t>(b)] == reached,
                 "a control transfer must reach the first pc of its IR target");
  };

  const ir::FunctionId entry_fn = code[entry_pc].fn;
  walk(entry_fn, module.function(entry_fn).entry, static_cast<std::int32_t>(entry_pc),
       Pass{entry_pc, Pass::kProgramEntry});
  for (std::uint32_t pc = 0; pc < code.size(); ++pc) {
    const SlInstr& in = code[pc];
    switch (in.op) {
      case SlOp::kBeqz:
      case SlOp::kBnez:
      case SlOp::kJ:
        walk(in.fn, in.target_block, in.target, Pass{pc, Pass::kTaken});
        break;
      case SlOp::kCall: {
        const ir::FunctionId callee = code[static_cast<std::size_t>(in.target)].fn;
        walk(callee, module.function(callee).entry, in.target, Pass{pc, Pass::kTaken});
        break;
      }
      default:
        break;
    }
    const bool last = pc + 1 == code.size() || !SameBlock(in, code[pc + 1]);
    if (!last || in.op == SlOp::kJ || in.op == SlOp::kRet) continue;
    // A fall-through out of the block: to its br target, or to the
    // condbr successor its branch does not name.
    LOPASS_CHECK(in.op != SlOp::kCall && pc + 1 < code.size(),
                 "a block must not end in a call or run off the code");
    const ir::Instr& term = module.function(in.fn).block(in.block).terminator();
    ir::BlockId next = term.target0;
    if (term.op == ir::Opcode::kCondBr) {
      LOPASS_CHECK(in.op == SlOp::kBeqz || in.op == SlOp::kBnez,
                   "a condbr block must end in a branch");
      if (in.target_block == term.target0) next = term.target1;
    } else {
      LOPASS_CHECK(term.op == ir::Opcode::kBr, "only a br or condbr block falls through");
    }
    walk(in.fn, next, static_cast<std::int32_t>(pc + 1), Pass{pc, Pass::kFallThrough});
  }
  return passes;
}

}  // namespace

SimResult Simulator::Run(const std::string& fn, std::span<const std::int64_t> args,
                         const HwPartition& partition, std::uint64_t max_instrs) {
  fault::MaybeInject("sim");
  const auto fid = module_.FindFunction(fn);
  if (!fid) LOPASS_THROW("no function named '" + fn + "'");
  const isa::FuncInfo& entry_fn = program_.function(*fid);
  const ir::Function& entry_ir = module_.function(*fid);
  LOPASS_CHECK(args.size() == entry_ir.params.size(), "argument count mismatch");
  for (std::size_t i = 0; i < args.size(); ++i) {
    memory_[module_.symbol(entry_ir.params[i]).address / 4] = args[i];
  }

  cache::CacheSim icache(config_.icache, cache::WritePolicy::kWriteBackAllocate);
  cache::CacheSim dcache(config_.dcache, config_.dcache_policy);
  const power::CacheEnergyModel icache_em(config_.icache, lib_.params());
  const power::CacheEnergyModel dcache_em(config_.dcache, lib_.params());
  const power::MemoryEnergyModel mem_em(config_.memory_bytes, lib_.params());
  const std::uint32_t i_line_words = config_.icache.line_bytes / 4;
  const std::uint32_t d_line_words = config_.dcache.line_bytes / 4;
  const bool write_through = config_.dcache_policy == cache::WritePolicy::kWriteThroughNoAllocate;
  const std::int64_t memory_bytes = static_cast<std::int64_t>(memory_.size() * 4);

  SimResult r;
  r.block_costs.resize(module_.num_functions());
  for (std::size_t f = 0; f < module_.num_functions(); ++f) {
    r.block_costs[f].assign(module_.function(static_cast<ir::FunctionId>(f)).blocks.size(),
                            BlockCost{});
  }
  r.cluster_entries.assign(partition.clusters.size(), 0);

  const std::vector<SlInstr>& code = program_.code;
  std::vector<Decoded> decoded(code.size());
  for (std::uint32_t pc = 0; pc < code.size(); ++pc) {
    const SlInstr& in = code[pc];
    LOPASS_CHECK(in.fn >= 0 && static_cast<std::size_t>(in.fn) < r.block_costs.size() &&
                     in.block >= 0 &&
                     static_cast<std::size_t>(in.block) <
                         r.block_costs[static_cast<std::size_t>(in.fn)].size(),
                 "SL32 instruction without a block");
    Decoded& d = decoded[pc];
    d.cls = isa::ClassOf(in.op);
    if (!partition.empty()) {
      const auto f = static_cast<std::size_t>(in.fn);
      LOPASS_CHECK(f < partition.block_cluster.size() &&
                       static_cast<std::size_t>(in.block) < partition.block_cluster[f].size(),
                   "partition does not cover every block");
      d.cluster = partition.ClusterOf(in.fn, in.block);
      LOPASS_CHECK(d.cluster < static_cast<int>(partition.clusters.size()),
                   "block mapped to an unknown cluster");
    }
    d.active_mask = energy_.active_resources(d.cls);
    d.fetch_address = program_.FetchAddress(pc);
    d.base_cycles = isa::BaseCycles(in.op);
    d.base_energy = energy_.base_energy(d.cls);
    d.cost = &r.block_costs[static_cast<std::size_t>(in.fn)][static_cast<std::size_t>(in.block)];
    LOPASS_CHECK(in.array == ir::kNoSymbol ||
                     module_.symbol(in.array).kind == ir::SymbolKind::kArray,
                 "bounds check of a non-array");
  }
  const std::vector<Pass> passes = FindPasses(module_, code, entry_fn.entry, r.block_costs);
  // Executions and taken branches per pc; the integer instruction,
  // resource and entry accounting is derived from these after the loop.
  std::vector<std::uint64_t> executions(code.size(), 0);
  std::vector<std::uint64_t> branches_taken(code.size(), 0);

  // regs[kZeroReg] is never written, so it always reads 0.
  std::array<std::int64_t, isa::kNumRegs> regs{};
  std::vector<std::uint32_t> call_stack;
  std::uint32_t pc = entry_fn.entry;
  InstrClass prev_class = InstrClass::kNop;
  int prev_cluster = -1;
  std::uint64_t executed = 0;

  // Boundary-transfer accounting: the µP deposits `words` to shared
  // memory (entry) or reads them back (exit); the ASIC core does the
  // mirrored access. Charged: µP load/store energy + cycles, two bus
  // transfers and two memory accesses per word (Fig. 2a scheme).
  auto account_entry = [&](int cluster) {
    const std::uint32_t w = partition.clusters[static_cast<std::size_t>(cluster)].entry_words;
    ++r.cluster_entries[static_cast<std::size_t>(cluster)];
    r.transfer_words_in += w;
    r.up_cycles = SaturatingAdd(r.up_cycles, static_cast<Cycles>(w) * 2);
    r.energy.up_core += energy_.base_energy(InstrClass::kStore) * static_cast<double>(w);
    r.energy.bus += (lib_.bus_write_energy() + lib_.bus_read_energy()) * static_cast<double>(w);
    r.energy.mem += (mem_em.write_energy() + mem_em.read_energy()) * static_cast<double>(w);
    r.mem_writes += w;
    r.mem_reads += w;
  };
  auto account_exit = [&](int cluster) {
    const std::uint32_t w = partition.clusters[static_cast<std::size_t>(cluster)].exit_words;
    r.transfer_words_out += w;
    r.up_cycles = SaturatingAdd(r.up_cycles, static_cast<Cycles>(w) * 2);
    r.energy.up_core += energy_.base_energy(InstrClass::kLoad) * static_cast<double>(w);
    r.energy.bus += (lib_.bus_write_energy() + lib_.bus_read_energy()) * static_cast<double>(w);
    r.energy.mem += (mem_em.write_energy() + mem_em.read_energy()) * static_cast<double>(w);
    r.mem_writes += w;
    r.mem_reads += w;
  };

  for (;;) {
    LOPASS_CHECK(pc < code.size(), "pc out of range");
    const SlInstr& in = code[pc];
    const Decoded& d = decoded[pc];
    if (++executed > max_instrs) {
      LOPASS_THROW("simulator fuel exhausted after " + std::to_string(max_instrs) +
                   " instructions (non-terminating workload?)");
    }

    if (d.cluster != prev_cluster) {
      if (prev_cluster >= 0) account_exit(prev_cluster);
      if (d.cluster >= 0) account_entry(d.cluster);
      prev_cluster = d.cluster;
    }
    const bool sw = d.cluster < 0;
    ++executions[pc];

    Cycles instr_cycles = 0;
    Energy instr_energy;

    if (sw) {
      // Instruction fetch.
      if (!icache.Access(d.fetch_address, /*is_write=*/false)) {
        const Cycles penalty = 3 + i_line_words;
        instr_cycles += penalty;
        instr_energy += energy_.stall_energy_per_cycle() * static_cast<double>(penalty);
        r.energy.bus += lib_.bus_read_energy() * static_cast<double>(i_line_words);
        r.energy.mem += mem_em.read_energy() * static_cast<double>(i_line_words);
        r.mem_reads += i_line_words;
      }
      instr_cycles += d.base_cycles;
      instr_energy += d.base_energy + energy_.overhead(prev_class, d.cls);
      prev_class = d.cls;
    }

    // --- functional execution -------------------------------------------
    auto rd_reg = [&](int idx) -> std::int64_t { return regs[static_cast<std::size_t>(idx)]; };
    auto wr_reg = [&](int idx, std::int64_t v) {
      if (idx != isa::kZeroReg) regs[static_cast<std::size_t>(idx)] = v;
    };
    auto src2 = [&]() -> std::int64_t {
      return in.use_imm ? in.imm : rd_reg(in.rs2);
    };

    std::uint32_t next_pc = pc + 1;
    bool taken = false;
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
        const bool is_write = in.op == SlOp::kSt;
        if (sw) {
          if (!dcache.Access(addr, is_write) && !(is_write && write_through)) {
            // The miss allocates a line.
            const Cycles penalty = 3 + d_line_words;
            instr_cycles += penalty;
            instr_energy += energy_.stall_energy_per_cycle() * static_cast<double>(penalty);
            r.energy.bus += lib_.bus_read_energy() * static_cast<double>(d_line_words);
            r.energy.mem += mem_em.read_energy() * static_cast<double>(d_line_words);
            r.mem_reads += d_line_words;
          }
          if (is_write && write_through) {
            r.energy.bus += lib_.bus_write_energy();
            r.energy.mem += mem_em.write_energy();
            r.mem_writes += 1;
          }
        }
        if (is_write) {
          memory_[addr / 4] = rd_reg(in.rd);
        } else {
          wr_reg(in.rd, memory_[addr / 4]);
        }
        break;
      }
      case SlOp::kBeqz:
        if (rd_reg(in.rs1) == 0) { next_pc = static_cast<std::uint32_t>(in.target); taken = true; }
        break;
      case SlOp::kBnez:
        if (rd_reg(in.rs1) != 0) { next_pc = static_cast<std::uint32_t>(in.target); taken = true; }
        break;
      case SlOp::kJ:
        next_pc = static_cast<std::uint32_t>(in.target);
        break;
      case SlOp::kCall:
        call_stack.push_back(pc + 1);
        next_pc = static_cast<std::uint32_t>(in.target);
        break;
      case SlOp::kRet:
        if (call_stack.empty()) {
          // Program finished: charge this instruction's cycles and
          // energy, then halt. It counts as executed but keeps no
          // resource active.
          r.return_value = regs[isa::kRetValReg];
          if (sw) {
            r.up_cycles = SaturatingAdd(r.up_cycles, instr_cycles);
            r.energy.up_core += instr_energy;
            d.cost->cycles = SaturatingAdd(d.cost->cycles, instr_cycles);
            d.cost->energy += instr_energy;
          }
          if (prev_cluster >= 0) account_exit(prev_cluster);
          goto done;
        }
        next_pc = call_stack.back();
        call_stack.pop_back();
        break;
    }

    if (taken) ++branches_taken[pc];
    if (sw) {
      if (taken) {
        instr_cycles += 1;  // branch-taken pipeline bubble
      }
      r.up_cycles = SaturatingAdd(r.up_cycles, instr_cycles);
      r.energy.up_core += instr_energy;
      d.cost->cycles = SaturatingAdd(d.cost->cycles, instr_cycles);
      d.cost->energy += instr_energy;
    }
    pc = next_pc;
  }

done:
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::uint64_t n = executions[i];
    if (n == 0) continue;
    const Decoded& d = decoded[i];
    if (i == 0 || !SameBlock(code[i - 1], code[i])) d.cost->entries += n;
    if (d.cluster >= 0) continue;
    r.instr_count += n;
    d.cost->instrs += n;
    // The final ret (at `pc`) is not counted as keeping resources busy.
    const Cycles busy = d.base_cycles * (i == pc ? n - 1 : n);
    for (int res = 0; res < kNumUpResources; ++res) {
      if (d.active_mask & (1u << res)) {
        r.active_cycles[static_cast<std::size_t>(res)] += busy;
        d.cost->active_cycles[static_cast<std::size_t>(res)] += busy;
      }
    }
  }

  for (const Pass& p : passes) {
    switch (p.via) {
      case Pass::kTaken:  // a jump or a call always transfers
        p.block->entries += decoded[p.pc].cls == InstrClass::kBranch ? branches_taken[p.pc]
                                                                     : executions[p.pc];
        break;
      case Pass::kFallThrough:
        p.block->entries += executions[p.pc] - branches_taken[p.pc];
        break;
      case Pass::kProgramEntry:
        p.block->entries += 1;
        break;
    }
  }

  // Dirty-line flush at program end is not charged (the paper measures
  // steady application execution).
  r.icache_stats = icache.stats();
  r.dcache_stats = dcache.stats();
  r.energy.icache = icache.TotalEnergy(icache_em);
  r.energy.dcache = dcache.TotalEnergy(dcache_em);
  // Dirty-line writebacks from the d-cache reach memory over the bus
  // (write-through words were charged per access above).
  const std::uint64_t wb_words =
      r.dcache_stats.writebacks * static_cast<std::uint64_t>(d_line_words);
  r.energy.bus += lib_.bus_write_energy() * static_cast<double>(wb_words);
  r.energy.mem += mem_em.write_energy() * static_cast<double>(wb_words);
  r.mem_writes += wb_words;

  if (r.up_cycles > 0) {
    double sum = 0.0;
    for (int res = 0; res < kNumAveragedUpResources; ++res) {
      sum += static_cast<double>(r.active_cycles[static_cast<std::size_t>(res)]) /
             static_cast<double>(r.up_cycles);
    }
    r.up_utilization = sum / kNumAveragedUpResources;
  }
  CheckEnergySane(r.energy.total(), "simulated system energy");
  return r;
}

}  // namespace lopass::iss
