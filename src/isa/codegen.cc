#include "isa/codegen.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace lopass::isa {

namespace {

using ir::Opcode;
using ir::Operand;

// Immediate range usable directly in ALU-immediate forms (SPARC-style
// 13-bit signed simm).
bool FitsSimm13(std::int64_t v) { return v >= -4096 && v <= 4095; }

// Address of element `index` of array `s`. A constant index on a path
// the program never takes may be far out of range: it wraps like the
// dynamic index's `sll` (the ISS rejects the access if it ever runs).
std::int64_t ElemAddress(const ir::Symbol& s, std::int64_t index) {
  return WrapAdd(s.address, WrapShl(index, 2));
}

bool HasImmForm(SlOp op) {
  switch (op) {
    case SlOp::kAdd:
    case SlOp::kSub:
    case SlOp::kAnd:
    case SlOp::kOr:
    case SlOp::kXor:
    case SlOp::kSll:
    case SlOp::kSrl:
    case SlOp::kSra:
    case SlOp::kSeq:
    case SlOp::kSne:
    case SlOp::kSlt:
    case SlOp::kSle:
    case SlOp::kSgt:
    case SlOp::kSge:
      return true;
    default:
      return false;
  }
}

SlOp BinOpFor(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return SlOp::kAdd;
    case Opcode::kSub: return SlOp::kSub;
    case Opcode::kMul: return SlOp::kMul;
    case Opcode::kDiv: return SlOp::kDiv;
    case Opcode::kMod: return SlOp::kMod;
    case Opcode::kAnd: return SlOp::kAnd;
    case Opcode::kOr: return SlOp::kOr;
    case Opcode::kXor: return SlOp::kXor;
    case Opcode::kShl: return SlOp::kSll;
    case Opcode::kShr: return SlOp::kSrl;
    case Opcode::kSar: return SlOp::kSra;
    case Opcode::kMin: return SlOp::kMin;
    case Opcode::kMax: return SlOp::kMax;
    case Opcode::kCmpEq: return SlOp::kSeq;
    case Opcode::kCmpNe: return SlOp::kSne;
    case Opcode::kCmpLt: return SlOp::kSlt;
    case Opcode::kCmpLe: return SlOp::kSle;
    case Opcode::kCmpGt: return SlOp::kSgt;
    case Opcode::kCmpGe: return SlOp::kSge;
    default: throw Error(std::string("no SL32 op for ") + ir::OpcodeName(op));
  }
}

// Per-function code generator with a block-local register allocator.
class FuncCodegen {
 public:
  FuncCodegen(const ir::Module& m, const ir::Function& f, std::vector<SlInstr>& code,
              FuncInfo& info, std::uint32_t spill_base)
      : mod_(m), fn_(f), code_(code), info_(info) {
    info_.spill_base = spill_base;
  }

  void Run() {
    info_.entry = static_cast<std::uint32_t>(code_.size());
    block_start_.assign(fn_.blocks.size(), 0);
    // Blocks are laid out in id order (the frontend creates them in
    // program order, which keeps fall-through frequent).
    for (const ir::BasicBlock& bb : fn_.blocks) {
      block_start_[static_cast<std::size_t>(bb.id)] = static_cast<std::uint32_t>(code_.size());
      GenBlock(bb);
    }
    info_.end = static_cast<std::uint32_t>(code_.size());
    PatchBranches();
    info_.spill_words = spill_words_;
  }

 private:
  // --- register allocation (block-local) --------------------------------

  struct VregState {
    int reg = -1;        // physical register, or -1
    int spill_slot = -1; // spill slot index, or -1
  };

  void ResetBlockState(const ir::BasicBlock& bb) {
    vreg_.clear();
    reg_owner_.assign(kNumRegs, -1);
    free_.clear();
    for (int r = kLastTempReg; r >= kFirstTempReg; --r) free_.push_back(r);
    pinned_.assign(kNumRegs, false);
    // Last use index per vreg within this block.
    last_use_.clear();
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      for (const Operand& a : bb.instrs[i].args) {
        if (a.is_vreg()) last_use_[a.vreg] = i;
      }
    }
  }

  int SpillSlotFor(ir::VregId v) {
    VregState& st = vreg_[v];
    if (st.spill_slot < 0) {
      st.spill_slot = static_cast<int>(spill_words_);
      ++spill_words_;
    }
    return st.spill_slot;
  }

  std::uint32_t SpillAddr(int slot) const {
    return info_.spill_base + 4 * static_cast<std::uint32_t>(slot);
  }

  // Frees registers owned by vregs whose last use is before `idx`.
  void ExpireOldValues(std::size_t idx) {
    for (int r = kFirstTempReg; r <= kLastTempReg; ++r) {
      const ir::VregId v = reg_owner_[static_cast<std::size_t>(r)];
      if (v < 0) continue;
      auto it = last_use_.find(v);
      if (it == last_use_.end() || it->second < idx) {
        reg_owner_[static_cast<std::size_t>(r)] = -1;
        vreg_[v].reg = -1;
        free_.push_back(r);
      }
    }
  }

  // Allocates a physical register, spilling the victim with the
  // farthest next use if necessary. Never evicts a pinned register.
  int AllocReg() {
    if (!free_.empty()) {
      const int r = free_.back();
      free_.pop_back();
      return r;
    }
    // Pick an unpinned victim with the farthest last use.
    int victim = -1;
    std::size_t farthest = 0;
    for (int r = kFirstTempReg; r <= kLastTempReg; ++r) {
      if (pinned_[static_cast<std::size_t>(r)]) continue;
      const ir::VregId v = reg_owner_[static_cast<std::size_t>(r)];
      if (v < 0) { victim = r; farthest = std::numeric_limits<std::size_t>::max(); break; }
      const std::size_t lu = last_use_.count(v) ? last_use_[v] : 0;
      if (victim < 0 || lu > farthest) { victim = r; farthest = lu; }
    }
    LOPASS_CHECK(victim >= 0, "register allocator ran out of unpinned registers");
    const ir::VregId v = reg_owner_[static_cast<std::size_t>(victim)];
    if (v >= 0) {
      // Spill the victim's value.
      const int slot = SpillSlotFor(v);
      EmitMem(SlOp::kSt, victim, kZeroReg, SpillAddr(slot));
      vreg_[v].reg = -1;
      reg_owner_[static_cast<std::size_t>(victim)] = -1;
    }
    return victim;
  }

  void BindReg(ir::VregId v, int r) {
    vreg_[v].reg = r;
    reg_owner_[static_cast<std::size_t>(r)] = v;
  }

  // Returns the register holding vreg v, reloading it if spilled.
  int RegOf(ir::VregId v) {
    auto it = vreg_.find(v);
    LOPASS_CHECK(it != vreg_.end(), "use of undefined vreg in codegen");
    if (it->second.reg >= 0) return it->second.reg;
    LOPASS_CHECK(it->second.spill_slot >= 0, "vreg neither in reg nor spilled");
    const int r = AllocReg();
    EmitMem(SlOp::kLd, r, kZeroReg, SpillAddr(it->second.spill_slot));
    BindReg(v, r);
    return r;
  }

  // Materializes an operand into a register; pins it. Immediate
  // operands get a transient register that is released by UnpinAll.
  int Materialize(const Operand& a, std::vector<int>& transient) {
    if (a.is_vreg()) {
      const int r = RegOf(a.vreg);
      pinned_[static_cast<std::size_t>(r)] = true;
      return r;
    }
    if (a.imm == 0) return kZeroReg;
    const int r = AllocReg();
    EmitLi(r, a.imm);
    pinned_[static_cast<std::size_t>(r)] = true;
    transient.push_back(r);
    return r;
  }

  void ReleaseTransients(std::vector<int>& transient) {
    for (int r : transient) {
      pinned_[static_cast<std::size_t>(r)] = false;
      if (reg_owner_[static_cast<std::size_t>(r)] < 0) free_.push_back(r);
    }
    transient.clear();
    for (int r = kFirstTempReg; r <= kLastTempReg; ++r) pinned_[static_cast<std::size_t>(r)] = false;
  }

  // --- emission helpers ---------------------------------------------------

  SlInstr& Emit(SlOp op) {
    SlInstr in;
    in.op = op;
    in.fn = fn_.id;
    in.block = cur_block_;
    code_.push_back(in);
    return code_.back();
  }

  void EmitAlu(SlOp op, int rd, int rs1, int rs2) {
    SlInstr& in = Emit(op);
    in.rd = static_cast<std::int16_t>(rd);
    in.rs1 = static_cast<std::int16_t>(rs1);
    in.rs2 = static_cast<std::int16_t>(rs2);
  }

  void EmitAluImm(SlOp op, int rd, int rs1, std::int64_t imm) {
    SlInstr& in = Emit(op);
    in.rd = static_cast<std::int16_t>(rd);
    in.rs1 = static_cast<std::int16_t>(rs1);
    in.use_imm = true;
    in.imm = imm;
  }

  void EmitLi(int rd, std::int64_t imm) {
    SlInstr& in = Emit(SlOp::kLi);
    in.rd = static_cast<std::int16_t>(rd);
    in.imm = imm;
  }

  SlInstr& EmitMem(SlOp op, int rvalue, int rbase, std::int64_t offset) {
    SlInstr& in = Emit(op);
    in.rd = static_cast<std::int16_t>(rvalue);
    in.rs1 = static_cast<std::int16_t>(rbase);
    in.imm = offset;
    return in;
  }

  // Puts the bounds check of element access `access` on `in`, the
  // instruction that holds its index (SlInstr::array).
  static void TagIndex(SlInstr& in, const ir::Instr& access) {
    in.array = access.sym;
    in.array_access = access.op;
    if (access.args[0].is_imm()) in.array_index = access.args[0].imm;
  }

  void EmitBranch(SlOp op, int rcond, ir::BlockId target) {
    SlInstr& in = Emit(op);
    in.rs1 = static_cast<std::int16_t>(rcond);
    in.target_block = target;  // PatchBranches sets `target`
    pending_branches_.push_back(static_cast<std::uint32_t>(code_.size() - 1));
  }

  void EmitJump(ir::BlockId target) {
    SlInstr& in = Emit(SlOp::kJ);
    in.target_block = target;
    pending_branches_.push_back(static_cast<std::uint32_t>(code_.size() - 1));
  }

  void PatchBranches() {
    for (std::uint32_t i : pending_branches_) {
      SlInstr& in = code_[i];
      LOPASS_CHECK(in.target_block >= 0 &&
                       static_cast<std::size_t>(in.target_block) < block_start_.size(),
                   "branch target block out of range");
      in.target = static_cast<std::int32_t>(
          block_start_[static_cast<std::size_t>(in.target_block)]);
    }
  }

  // --- instruction selection ----------------------------------------------

  void GenBlock(const ir::BasicBlock& bb) {
    cur_block_ = bb.id;
    ResetBlockState(bb);
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      ExpireOldValues(i);
      GenInstr(bb.instrs[i]);
    }
  }

  // True when `next` block is the fall-through successor in layout.
  bool IsNextBlock(ir::BlockId b) const {
    return b == cur_block_ + 1 &&
           static_cast<std::size_t>(b) < fn_.blocks.size();
  }

  void GenInstr(const ir::Instr& in) {
    std::vector<int> transient;
    switch (in.op) {
      case Opcode::kConst: {
        const int rd = AllocReg();
        EmitLi(rd, in.args[0].imm);
        BindReg(in.result, rd);
        break;
      }
      case Opcode::kMov: {
        const int rs = Materialize(in.args[0], transient);
        const int rd = AllocReg();
        EmitAlu(SlOp::kOr, rd, rs, kZeroReg);
        ReleaseTransients(transient);
        BindReg(in.result, rd);
        break;
      }
      case Opcode::kReadVar: {
        const int rd = AllocReg();
        EmitMem(SlOp::kLd, rd, kZeroReg, mod_.symbol(in.sym).address);
        BindReg(in.result, rd);
        break;
      }
      case Opcode::kWriteVar: {
        const int rs = Materialize(in.args[0], transient);
        EmitMem(SlOp::kSt, rs, kZeroReg, mod_.symbol(in.sym).address);
        ReleaseTransients(transient);
        break;
      }
      case Opcode::kLoadElem: {
        const ir::Symbol& s = mod_.symbol(in.sym);
        if (in.args[0].is_imm()) {
          const int rd = AllocReg();
          TagIndex(EmitMem(SlOp::kLd, rd, kZeroReg, ElemAddress(s, in.args[0].imm)), in);
          BindReg(in.result, rd);
        } else {
          const int ridx = Materialize(in.args[0], transient);
          const int raddr = AllocReg();
          pinned_[static_cast<std::size_t>(raddr)] = true;
          EmitAluImm(SlOp::kSll, raddr, ridx, 2);
          TagIndex(code_.back(), in);
          const int rd = AllocReg();
          EmitMem(SlOp::kLd, rd, raddr, s.address);
          if (reg_owner_[static_cast<std::size_t>(raddr)] < 0) free_.push_back(raddr);
          ReleaseTransients(transient);
          BindReg(in.result, rd);
        }
        break;
      }
      case Opcode::kStoreElem: {
        const ir::Symbol& s = mod_.symbol(in.sym);
        if (in.args[0].is_imm()) {
          const int rv = Materialize(in.args[1], transient);
          TagIndex(EmitMem(SlOp::kSt, rv, kZeroReg, ElemAddress(s, in.args[0].imm)), in);
        } else {
          const int ridx = Materialize(in.args[0], transient);
          const int raddr = AllocReg();
          pinned_[static_cast<std::size_t>(raddr)] = true;
          EmitAluImm(SlOp::kSll, raddr, ridx, 2);
          TagIndex(code_.back(), in);
          transient.push_back(raddr);
          const int rv = Materialize(in.args[1], transient);
          EmitMem(SlOp::kSt, rv, raddr, s.address);
        }
        ReleaseTransients(transient);
        break;
      }
      case Opcode::kNeg: {
        const int rs = Materialize(in.args[0], transient);
        const int rd = AllocReg();
        EmitAlu(SlOp::kSub, rd, kZeroReg, rs);
        ReleaseTransients(transient);
        BindReg(in.result, rd);
        break;
      }
      case Opcode::kNot: {
        const int rs = Materialize(in.args[0], transient);
        const int rd = AllocReg();
        EmitAluImm(SlOp::kXor, rd, rs, -1);
        ReleaseTransients(transient);
        BindReg(in.result, rd);
        break;
      }
      case Opcode::kCall: {
        // Write arguments into the callee's parameter slots.
        const auto callee_id = ir::CalleeOf(mod_, in);
        LOPASS_CHECK(callee_id.has_value(), "call target missing");
        const ir::Function& callee = mod_.function(*callee_id);
        for (std::size_t a = 0; a < in.args.size(); ++a) {
          std::vector<int> t2;
          const int rv = Materialize(in.args[a], t2);
          EmitMem(SlOp::kSt, rv, kZeroReg, mod_.symbol(callee.params[a]).address);
          ReleaseTransients(t2);
        }
        // All temp registers are caller-scratch: spill live values.
        SpillAllLive();
        SlInstr& c = Emit(SlOp::kCall);
        c.target = *callee_id;  // patched at link time
        pending_calls_.push_back(static_cast<std::uint32_t>(code_.size() - 1));
        const int rd = AllocReg();
        EmitAlu(SlOp::kOr, rd, kRetValReg, kZeroReg);
        BindReg(in.result, rd);
        break;
      }
      case Opcode::kRet: {
        if (!in.args.empty()) {
          const int rv = Materialize(in.args[0], transient);
          EmitAlu(SlOp::kOr, kRetValReg, rv, kZeroReg);
          ReleaseTransients(transient);
        }
        Emit(SlOp::kRet);
        break;
      }
      case Opcode::kBr: {
        if (!IsNextBlock(in.target0)) EmitJump(in.target0);
        break;
      }
      case Opcode::kCondBr: {
        const int rc = Materialize(in.args[0], transient);
        if (IsNextBlock(in.target0)) {
          EmitBranch(SlOp::kBeqz, rc, in.target1);
        } else if (IsNextBlock(in.target1)) {
          EmitBranch(SlOp::kBnez, rc, in.target0);
        } else {
          EmitBranch(SlOp::kBnez, rc, in.target0);
          EmitJump(in.target1);
        }
        ReleaseTransients(transient);
        break;
      }
      default: {
        // Binary arithmetic / comparisons.
        const SlOp slop = BinOpFor(in.op);
        const Operand& a = in.args[0];
        const Operand& b = in.args[1];
        const int rs1 = Materialize(a, transient);
        int rd;
        if (b.is_imm() && HasImmForm(slop) && FitsSimm13(b.imm)) {
          rd = AllocReg();
          EmitAluImm(slop, rd, rs1, b.imm);
        } else {
          const int rs2 = Materialize(b, transient);
          rd = AllocReg();
          EmitAlu(slop, rd, rs1, rs2);
        }
        ReleaseTransients(transient);
        BindReg(in.result, rd);
        break;
      }
    }
  }

  // Spills every live vreg before a call (temps are caller-scratch).
  void SpillAllLive() {
    for (int r = kFirstTempReg; r <= kLastTempReg; ++r) {
      const ir::VregId v = reg_owner_[static_cast<std::size_t>(r)];
      if (v < 0) continue;
      const int slot = SpillSlotFor(v);
      EmitMem(SlOp::kSt, r, kZeroReg, SpillAddr(slot));
      vreg_[v].reg = -1;
      reg_owner_[static_cast<std::size_t>(r)] = -1;
      free_.push_back(r);
    }
  }

 public:
  std::vector<std::uint32_t> pending_calls_;  // call sites to link

 private:
  const ir::Module& mod_;
  const ir::Function& fn_;
  std::vector<SlInstr>& code_;
  FuncInfo& info_;

  ir::BlockId cur_block_ = ir::kNoBlock;
  std::vector<std::uint32_t> block_start_;
  std::vector<std::uint32_t> pending_branches_;

  std::unordered_map<ir::VregId, VregState> vreg_;
  std::unordered_map<ir::VregId, std::size_t> last_use_;
  std::vector<ir::VregId> reg_owner_;
  std::vector<int> free_;
  std::vector<bool> pinned_;
  std::uint32_t spill_words_ = 0;
};

}  // namespace

SlProgram Generate(const ir::Module& module) {
  LOPASS_CHECK(module.num_functions() > 0, "cannot generate code for empty module");
  SlProgram p;
  std::vector<std::uint32_t> all_call_sites;

  // Reserve spill space after static data, assigned per function as we
  // discover how much each needs. First pass uses a generous running
  // base; compacted afterwards.
  std::uint32_t spill_base = module.data_size_bytes();
  for (const ir::Function& f : module.functions()) {
    FuncInfo info;
    info.fn = f.id;
    info.name = f.name;
    FuncCodegen cg(module, f, p.code, info, spill_base);
    cg.Run();
    spill_base += info.spill_words * 4;
    p.functions.push_back(info);
    all_call_sites.insert(all_call_sites.end(), cg.pending_calls_.begin(),
                          cg.pending_calls_.end());
  }
  p.data_size_bytes = spill_base;

  // Link calls: target currently holds the callee FunctionId.
  for (std::uint32_t i : all_call_sites) {
    SlInstr& in = p.code[i];
    in.target = static_cast<std::int32_t>(
        p.functions[static_cast<std::size_t>(in.target)].entry);
  }
  return p;
}

}  // namespace lopass::isa
