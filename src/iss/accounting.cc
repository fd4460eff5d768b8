#include "iss/accounting.h"

#include <limits>

#include "cache/cache_sim.h"
#include "common/error.h"
#include "power/cache_energy.h"

namespace lopass::iss {

using isa::InstrClass;
using isa::SlInstr;
using isa::SlOp;

namespace {

bool SameBlock(const SlInstr& a, const SlInstr& b) {
  return a.fn == b.fn && a.block == b.block;
}

bool EndsRun(SlOp op) {
  return op == SlOp::kBeqz || op == SlOp::kBnez || op == SlOp::kJ || op == SlOp::kCall ||
         op == SlOp::kRet;
}

// Reads a Trace front to back, as the run it records went.
class TraceReader {
 public:
  explicit TraceReader(const Trace& trace) : trace_(trace) { NextException(); }

  bool Taken() {
    LOPASS_CHECK(branch_ < trace_.taken.size() * 64, "trace ends before the run");
    const bool taken = (trace_.taken[branch_ / 64] >> (branch_ % 64)) & 1u;
    ++branch_;
    return taken;
  }

  // The address of the next load or store, at `p`'s pc.
  std::uint32_t Address(StridePredictor& p) {
    std::uint32_t address = p.Predict();
    if (access_ == exception_) {
      address += delta_;
      NextException();
    }
    ++access_;
    p.Update(address);
    return address;
  }

 private:
  std::uint64_t Leb128() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      LOPASS_CHECK(pos_ < trace_.strides.size() && shift < 64, "malformed trace");
      const std::uint8_t byte = trace_.strides[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
  }

  // Decodes the exception after the one at access_ (or the first).
  void NextException() {
    if (pos_ == trace_.strides.size()) {
      exception_ = std::numeric_limits<std::uint64_t>::max();
      return;
    }
    const std::uint64_t base = exception_ == kNone ? 0 : access_ + 1;
    exception_ = base + Leb128();
    const auto zigzag = static_cast<std::uint32_t>(Leb128());
    delta_ = (zigzag >> 1) ^ (0u - (zigzag & 1u));
  }

  static constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max() - 1;

  const Trace& trace_;
  std::size_t branch_ = 0;
  std::size_t pos_ = 0;
  std::uint64_t access_ = 0;          // ordinal of the next load or store
  std::uint64_t exception_ = kNone;   // ordinal of the next one off its prediction
  std::uint32_t delta_ = 0;           // its address minus the prediction
};

}  // namespace

Accounting::Accounting(const ir::Module& module, const isa::SlProgram& program,
                       const power::TechLibrary& lib, const TiwariModel& energy)
    : lib_(lib), energy_(energy), code_base_(program.code_base) {
  for (std::size_t f = 0; f < module.num_functions(); ++f) {
    num_blocks_.push_back(module.function(static_cast<ir::FunctionId>(f)).blocks.size());
  }
  const std::vector<SlInstr>& code = program.code;
  LOPASS_CHECK(code.size() < std::numeric_limits<std::uint32_t>::max(), "program too large");
  pcs_.resize(code.size() + 1);
  for (std::uint32_t pc = 0; pc < code.size(); ++pc) {
    const SlInstr& in = code[pc];
    LOPASS_CHECK(in.fn >= 0 && static_cast<std::size_t>(in.fn) < num_blocks_.size() &&
                     in.block >= 0 &&
                     static_cast<std::size_t>(in.block) <
                         num_blocks_[static_cast<std::size_t>(in.fn)],
                 "SL32 instruction without a block");
    LOPASS_CHECK(in.array == ir::kNoSymbol ||
                     module.symbol(in.array).kind == ir::SymbolKind::kArray,
                 "bounds check of a non-array");
    if (pc == 0 || !SameBlock(code[pc - 1], in)) blocks_.emplace_back(in.fn, in.block);
    Pc& p = pcs_[pc];
    p.op = in.op;
    p.cls = isa::ClassOf(in.op);
    p.target = in.target;
    p.block = static_cast<std::uint32_t>(blocks_.size() - 1);
    const InstrClass prev = pc > 0 ? pcs_[pc - 1].cls : InstrClass::kNop;
    p.energy = energy_.base_energy(p.cls) + energy_.overhead(prev, p.cls);
  }
  const auto size = static_cast<std::uint32_t>(code.size());
  pcs_[size].next_access = size;
  for (std::uint32_t pc = size; pc-- > 0;) {
    Pc& p = pcs_[pc];
    const bool ends = EndsRun(p.op) || pc + 1 == size || !SameBlock(code[pc], code[pc + 1]);
    const Pc* next = ends ? nullptr : &pcs_[pc + 1];
    p.run_end = next ? next->run_end : pc;
    p.run_cycles = isa::BaseCycles(p.op) + (next ? next->run_cycles : 0);
    p.next_access = p.op == SlOp::kLd || p.op == SlOp::kSt ? pc
                    : next                                 ? next->next_access
                                                           : pc + 1;
  }
  FindPasses(module, program);
}

// The passes of every function entry (where the program may start) and
// every control transfer in the code: the branch or jump targets, the
// fall-throughs out of a block and the calls. Each walks from the IR
// block it transfers to, along the `br` of blocks without code, to the
// block of the pc it reaches.
void Accounting::FindPasses(const ir::Module& module, const isa::SlProgram& program) {
  const std::vector<SlInstr>& code = program.code;
  std::vector<std::vector<std::int32_t>> first_pc(num_blocks_.size());
  for (std::size_t f = 0; f < num_blocks_.size(); ++f) first_pc[f].assign(num_blocks_[f], -1);
  for (std::uint32_t pc = 0; pc < code.size(); ++pc) {
    if (pc > 0 && SameBlock(code[pc - 1], code[pc])) continue;
    std::int32_t& first = first_pc[static_cast<std::size_t>(code[pc].fn)]
                                  [static_cast<std::size_t>(code[pc].block)];
    LOPASS_CHECK(first < 0, "a block's code is not contiguous");
    first = static_cast<std::int32_t>(pc);
  }

  auto walk = [&](ir::FunctionId fn, ir::BlockId b, std::int32_t reached, Pass pass) {
    const ir::Function& f = module.function(fn);
    const std::vector<std::int32_t>& firsts = first_pc[static_cast<std::size_t>(fn)];
    pass.fn = fn;
    for (std::size_t steps = 0;; ++steps) {
      LOPASS_CHECK(b >= 0 && static_cast<std::size_t>(b) < firsts.size() &&
                       steps < firsts.size(),
                   "a control transfer must reach a block of its function");
      if (firsts[static_cast<std::size_t>(b)] >= 0) break;
      const ir::Instr& br = f.block(b).terminator();
      LOPASS_CHECK(br.op == ir::Opcode::kBr,
                   "a block without code must fall through to its br target");
      pass.block = b;
      passes_.push_back(pass);
      b = br.target0;
    }
    LOPASS_CHECK(firsts[static_cast<std::size_t>(b)] == reached,
                 "a control transfer must reach the first pc of its IR target");
  };

  for (const isa::FuncInfo& f : program.functions) {
    if (f.entry >= f.end) continue;
    walk(f.fn, module.function(f.fn).entry, static_cast<std::int32_t>(f.entry),
         Pass{f.entry, Pass::kProgramEntry});
  }
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
}

SimResult Accounting::Account(const Trace& trace, const HwPartition& partition,
                              const SystemConfig& config) const {
  cache::CacheSim icache(config.icache, cache::WritePolicy::kWriteBackAllocate);
  cache::CacheSim dcache(config.dcache, config.dcache_policy);
  const power::CacheEnergyModel icache_em(config.icache, lib_.params());
  const power::CacheEnergyModel dcache_em(config.dcache, lib_.params());
  const power::MemoryEnergyModel mem_em(config.memory_bytes, lib_.params());
  const std::uint32_t i_line_words = config.icache.line_bytes / 4;
  const std::uint32_t d_line_words = config.dcache.line_bytes / 4;
  const bool write_through = config.dcache_policy == cache::WritePolicy::kWriteThroughNoAllocate;
  // What a miss that fills a line costs: stall cycles, their energy,
  // and the line's words over the bus from memory.
  const Cycles i_penalty = 3 + i_line_words;
  const Energy i_stall = energy_.stall_energy_per_cycle() * static_cast<double>(i_penalty);
  const Energy i_bus = lib_.bus_read_energy() * static_cast<double>(i_line_words);
  const Energy i_mem = mem_em.read_energy() * static_cast<double>(i_line_words);
  const Cycles d_penalty = 3 + d_line_words;
  const Energy d_stall = energy_.stall_energy_per_cycle() * static_cast<double>(d_penalty);
  const Energy d_bus = lib_.bus_read_energy() * static_cast<double>(d_line_words);
  const Energy d_mem = mem_em.read_energy() * static_cast<double>(d_line_words);

  SimResult r;
  r.return_value = trace.return_value;
  r.block_costs.resize(num_blocks_.size());
  for (std::size_t f = 0; f < num_blocks_.size(); ++f) {
    r.block_costs[f].assign(num_blocks_[f], BlockCost{});
  }
  r.cluster_entries.assign(partition.clusters.size(), 0);

  // Each block with code: its cost and its cluster (-1 = software).
  std::vector<BlockCost*> costs(blocks_.size());
  std::vector<int> clusters(blocks_.size(), -1);
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    const auto f = static_cast<std::size_t>(blocks_[k].first);
    const auto b = static_cast<std::size_t>(blocks_[k].second);
    costs[k] = &r.block_costs[f][b];
    if (partition.empty()) continue;
    LOPASS_CHECK(f < partition.block_cluster.size() && b < partition.block_cluster[f].size(),
                 "partition does not cover every block");
    clusters[k] = partition.block_cluster[f][b];
    LOPASS_CHECK(clusters[k] < static_cast<int>(partition.clusters.size()),
                 "block mapped to an unknown cluster");
  }

  // The walk's running sums, kept out of `r` until it ends; each takes
  // its terms in the order a per-instruction simulation adds them.
  Energy up_core, bus, mem;
  std::uint64_t mem_reads = 0, mem_writes = 0;

  // Boundary-transfer accounting: the µP deposits `words` to shared
  // memory (entry) or reads them back (exit); the ASIC core does the
  // mirrored access. Charged: µP load/store energy + cycles, two bus
  // transfers and two memory accesses per word (Fig. 2a scheme).
  auto account_transfer = [&](std::uint32_t w, InstrClass up_access) {
    r.up_cycles = SaturatingAdd(r.up_cycles, static_cast<Cycles>(w) * 2);
    up_core += energy_.base_energy(up_access) * static_cast<double>(w);
    bus += (lib_.bus_write_energy() + lib_.bus_read_energy()) * static_cast<double>(w);
    mem += (mem_em.write_energy() + mem_em.read_energy()) * static_cast<double>(w);
    mem_writes += w;
    mem_reads += w;
  };
  auto account_entry = [&](int cluster) {
    const std::uint32_t w = partition.clusters[static_cast<std::size_t>(cluster)].entry_words;
    ++r.cluster_entries[static_cast<std::size_t>(cluster)];
    r.transfer_words_in += w;
    account_transfer(w, InstrClass::kStore);
  };
  auto account_exit = [&](int cluster) {
    const std::uint32_t w = partition.clusters[static_cast<std::size_t>(cluster)].exit_words;
    r.transfer_words_out += w;
    account_transfer(w, InstrClass::kLoad);
  };

  const std::size_t size = pcs_.size() - 1;
  // Runs begun minus runs ended before each pc: its executions, once
  // prefix-summed after the walk (the counts wrap, the sums do not).
  std::vector<std::uint64_t> executions(size + 1, 0);
  std::vector<std::uint64_t> branches_taken(size, 0);
  std::vector<StridePredictor> predictors(size);
  TraceReader reader(trace);
  std::vector<std::uint32_t> call_stack;
  std::uint32_t pc = trace.entry_pc;
  InstrClass prev_class = InstrClass::kNop;
  int prev_cluster = -1;

  for (;;) {
    LOPASS_CHECK(pc < size, "pc out of range");
    const Pc& first = pcs_[pc];
    const std::uint32_t end = first.run_end;
    const int cluster = clusters[first.block];
    if (cluster != prev_cluster) {
      if (prev_cluster >= 0) account_exit(prev_cluster);
      if (cluster >= 0) account_entry(cluster);
      prev_cluster = cluster;
    }
    ++executions[pc];
    --executions[end + 1];

    Cycles cycles = first.run_cycles;
    if (cluster < 0) {
      Energy block_energy = costs[first.block]->energy;
      Energy e = energy_.base_energy(first.cls) + energy_.overhead(prev_class, first.cls);
      for (std::uint32_t q = pc;;) {
        if (!icache.Access(code_base_ + 4 * q, /*is_write=*/false)) {
          cycles += i_penalty;
          e = i_stall + e;
          bus += i_bus;
          mem += i_mem;
          mem_reads += i_line_words;
        }
        if (pcs_[q].next_access == q) {
          const std::uint32_t address = reader.Address(predictors[q]);
          const bool is_write = pcs_[q].op == SlOp::kSt;
          if (!dcache.Access(address, is_write) && !(is_write && write_through)) {
            // The miss allocates a line.
            cycles += d_penalty;
            e += d_stall;
            bus += d_bus;
            mem += d_mem;
            mem_reads += d_line_words;
          }
          if (is_write && write_through) {
            bus += lib_.bus_write_energy();
            mem += mem_em.write_energy();
            mem_writes += 1;
          }
        }
        up_core += e;
        block_energy += e;
        if (q == end) break;
        e = pcs_[++q].energy;
      }
      costs[first.block]->energy = block_energy;
      prev_class = pcs_[end].cls;
    } else {
      // The ASIC core runs the cluster's code: only the addresses move.
      for (std::uint32_t q = first.next_access; q <= end; q = pcs_[q + 1].next_access) {
        reader.Address(predictors[q]);
      }
    }

    const Pc& last = pcs_[end];
    std::uint32_t next_pc = end + 1;
    bool finished = false;
    switch (last.op) {
      case SlOp::kBeqz:
      case SlOp::kBnez:
        if (reader.Taken()) {
          next_pc = static_cast<std::uint32_t>(last.target);
          ++branches_taken[end];
          cycles += 1;  // branch-taken pipeline bubble
        }
        break;
      case SlOp::kJ:
        next_pc = static_cast<std::uint32_t>(last.target);
        break;
      case SlOp::kCall:
        call_stack.push_back(end + 1);
        next_pc = static_cast<std::uint32_t>(last.target);
        break;
      case SlOp::kRet:
        if (call_stack.empty()) {
          finished = true;
        } else {
          next_pc = call_stack.back();
          call_stack.pop_back();
        }
        break;
      default:
        break;
    }
    if (cluster < 0) {
      BlockCost& cost = *costs[first.block];
      r.up_cycles = SaturatingAdd(r.up_cycles, cycles);
      cost.cycles = SaturatingAdd(cost.cycles, cycles);
    }
    if (finished) {
      // The program's final ret: it counts as executed but keeps no
      // resource active.
      if (prev_cluster >= 0) account_exit(prev_cluster);
      pc = end;
      break;
    }
    pc = next_pc;
  }
  r.energy.up_core = up_core;

  std::uint64_t running = 0;
  for (std::size_t i = 0; i < size; ++i) {
    running += executions[i];
    executions[i] = running;
    const std::uint64_t n = running;
    if (n == 0) continue;
    const Pc& p = pcs_[i];
    BlockCost& cost = *costs[p.block];
    if (i == 0 || pcs_[i - 1].block != p.block) cost.entries += n;
    if (clusters[p.block] >= 0) continue;
    r.instr_count += n;
    cost.instrs += n;
    const Cycles busy = isa::BaseCycles(p.op) * (i == pc ? n - 1 : n);
    const std::uint32_t active = energy_.active_resources(p.cls);
    for (int res = 0; res < kNumUpResources; ++res) {
      if (active & (1u << res)) {
        r.active_cycles[static_cast<std::size_t>(res)] += busy;
        cost.active_cycles[static_cast<std::size_t>(res)] += busy;
      }
    }
  }

  for (const Pass& p : passes_) {
    BlockCost& cost =
        r.block_costs[static_cast<std::size_t>(p.fn)][static_cast<std::size_t>(p.block)];
    switch (p.via) {
      case Pass::kTaken:  // a jump or a call always transfers
        cost.entries += pcs_[p.pc].cls == InstrClass::kBranch ? branches_taken[p.pc]
                                                              : executions[p.pc];
        break;
      case Pass::kFallThrough:
        cost.entries += executions[p.pc] - branches_taken[p.pc];
        break;
      case Pass::kProgramEntry:
        if (p.pc == trace.entry_pc) cost.entries += 1;
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
  r.energy.bus = bus + lib_.bus_write_energy() * static_cast<double>(wb_words);
  r.energy.mem = mem + mem_em.write_energy() * static_cast<double>(wb_words);
  r.mem_reads = mem_reads;
  r.mem_writes = mem_writes + wb_words;

  r.up_utilization = AverageUtilization(r.active_cycles, r.up_cycles);
  CheckEnergySane(r.energy.total(), "simulated system energy");
  return r;
}

}  // namespace lopass::iss
