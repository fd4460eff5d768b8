#include "isa/peephole.h"

#include <algorithm>
#include <vector>

#include "common/error.h"

namespace lopass::isa {

namespace {

bool IsSelfMove(const SlInstr& in) {
  // `or rd, rd, r0` and `or rd, r0, rd` copy rd onto itself.
  if (in.op != SlOp::kOr || in.use_imm) return false;
  if (in.rd == in.rs1 && in.rs2 == kZeroReg) return true;
  if (in.rd == in.rs2 && in.rs1 == kZeroReg) return true;
  return false;
}

bool IsAddZero(const SlInstr& in) {
  if (!in.use_imm || in.imm != 0 || in.rd != in.rs1) return false;
  switch (in.op) {
    case SlOp::kAdd:
    case SlOp::kSub:
    case SlOp::kOr:
    case SlOp::kXor:
      return true;
    default:
      return false;
  }
}

// One rewrite round. Returns true if anything changed.
bool Round(SlProgram& program, PeepholeStats& stats) {
  const std::size_t n = program.code.size();

  // Instruction indices that are control-flow targets (branches, calls,
  // function entries): a store-load fusion across such a boundary would
  // be unsound, and target instructions must survive remapping cleanly.
  std::vector<bool> is_target(n + 1, false);
  for (const SlInstr& in : program.code) {
    if (in.op == SlOp::kBeqz || in.op == SlOp::kBnez || in.op == SlOp::kJ ||
        in.op == SlOp::kCall) {
      is_target[static_cast<std::size_t>(in.target)] = true;
    }
  }
  for (const FuncInfo& f : program.functions) is_target[f.entry] = true;

  std::vector<bool> remove(n, false);
  bool changed = false;

  for (std::size_t i = 0; i < n; ++i) {
    SlInstr& in = program.code[i];
    if (IsSelfMove(in)) {
      remove[i] = true;
      ++stats.self_moves;
      changed = true;
      continue;
    }
    if (IsAddZero(in)) {
      remove[i] = true;
      ++stats.add_zero;
      changed = true;
      continue;
    }
    if (in.op == SlOp::kJ && static_cast<std::size_t>(in.target) == i + 1) {
      remove[i] = true;
      ++stats.jump_to_next;
      changed = true;
      continue;
    }
    // Adjacent store-load of the same address: forward the register.
    // The load's bounds check (a constant index's) must be the store's,
    // which still runs.
    if (in.op == SlOp::kSt && i + 1 < n && !is_target[i + 1]) {
      SlInstr& next = program.code[i + 1];
      if (next.op == SlOp::kLd && next.rs1 == in.rs1 && next.imm == in.imm &&
          next.array == in.array && next.array_index == in.array_index &&
          next.rs1 != next.rd /* base must survive */) {
        if (next.rd == in.rd) {
          remove[i + 1] = true;  // load of the just-stored register
        } else {
          next.op = SlOp::kOr;
          next.rs1 = in.rd;
          next.rs2 = kZeroReg;
          next.use_imm = false;
          next.imm = 0;
        }
        ++stats.store_load;
        changed = true;
      }
    }
  }
  if (!changed) return false;

  // Compact and re-link. new_index[i] = index of the first kept
  // instruction at or after i.
  std::vector<std::int32_t> new_index(n + 1, 0);
  std::int32_t next_kept = static_cast<std::int32_t>(n);
  // First pass: assign kept slots.
  std::vector<std::int32_t> slot(n, -1);
  std::int32_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!remove[i]) slot[i] = k++;
  }
  // Backward fill of "first kept at or after".
  new_index[n] = k;
  next_kept = k;
  for (std::size_t i = n; i-- > 0;) {
    if (!remove[i]) next_kept = slot[i];
    new_index[i] = next_kept;
  }

  std::vector<SlInstr> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < n; ++i) {
    if (remove[i]) continue;
    SlInstr in = program.code[i];
    if (in.op == SlOp::kBeqz || in.op == SlOp::kBnez || in.op == SlOp::kJ ||
        in.op == SlOp::kCall) {
      in.target = new_index[static_cast<std::size_t>(in.target)];
    }
    out.push_back(in);
  }
  program.code = std::move(out);
  for (FuncInfo& f : program.functions) {
    f.entry = static_cast<std::uint32_t>(new_index[f.entry]);
    f.end = static_cast<std::uint32_t>(new_index[f.end]);
  }
  return true;
}

}  // namespace

PeepholeStats Peephole(SlProgram& program) {
  constexpr int kMaxRounds = 4;
  PeepholeStats stats;
  for (int r = 0; r < kMaxRounds; ++r) {
    if (!Round(program, stats)) break;
  }
  return stats;
}

}  // namespace lopass::isa
