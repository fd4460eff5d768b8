#include "sched/dfg.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.h"

namespace lopass::sched {

using ir::Opcode;

bool IsRegisterTransfer(ir::Opcode op) {
  switch (op) {
    case Opcode::kConst:
    case Opcode::kMov:
    case Opcode::kReadVar:
    case Opcode::kWriteVar:
      return true;
    default:
      return false;
  }
}

namespace {

// Gives each distinct id (a vreg or a symbol) a dense slot 0, 1, ... in
// the order first added, through a flat open-addressed table sized to
// the block, so no cost depends on how many ids the module has.
class DenseIds {
 public:
  explicit DenseIds(std::size_t max_ids)
      : bits_(static_cast<int>(std::bit_width(std::max<std::size_t>(2 * max_ids, 8) - 1))),
        table_(std::size_t{1} << bits_) {}

  // The slot of `id`, or -1 if it was never added.
  std::int32_t Find(std::int32_t id) const {
    for (std::size_t k = Home(id);; k = (k + 1) & (table_.size() - 1)) {
      if (table_[k].slot < 0 || table_[k].id == id) return table_[k].slot;
    }
  }

  std::int32_t Add(std::int32_t id) {
    for (std::size_t k = Home(id);; k = (k + 1) & (table_.size() - 1)) {
      if (table_[k].slot < 0) table_[k] = Entry{id, size_++};
      if (table_[k].id == id) return table_[k].slot;
    }
  }

 private:
  struct Entry {
    std::int32_t id = 0;
    std::int32_t slot = -1;
  };
  std::size_t Home(std::int32_t id) const {
    return (static_cast<std::uint32_t>(id) * 0x9e3779b1u) >> (32 - bits_);
  }

  int bits_;  // log2 of the table size
  std::vector<Entry> table_;
  std::int32_t size_ = 0;
};

bool UsesSymbolSlot(Opcode op) {
  return op == Opcode::kReadVar || op == Opcode::kWriteVar || op == Opcode::kLoadElem ||
         op == Opcode::kStoreElem;
}

}  // namespace

BlockDfg BuildBlockDfg(const ir::BasicBlock& block) {
  const std::size_t n = block.instrs.size();
  constexpr std::int32_t kNone = -1;

  // Per instruction: its node, or kNone for a register transfer or the
  // terminator; and for a register transfer, the range of `forwarded`
  // holding the nodes it stands for (its contracted producers), as
  // instruction indices.
  std::vector<std::int32_t> node_of(n, kNone);
  struct Range {
    std::size_t begin = 0, end = 0;
  };
  std::vector<Range> forwards(n);
  std::vector<std::int32_t> forwarded;

  // Per vreg slot: the defining instruction. Per symbol slot: the
  // writevar holding the scalar's value, the last store to the array,
  // and the newest of the loads since that store (a list threaded
  // through `loads`).
  DenseIds vregs(n), syms(n);
  std::vector<std::int32_t> def_of(n, kNone), var_value(n, kNone), last_store(n, kNone),
      newest_load(n, kNone);
  struct Load {
    std::int32_t instr, older;
  };
  std::vector<Load> loads;

  // The DFG-visible producers of the current instruction, as
  // instruction indices.
  std::vector<std::int32_t> srcs;
  auto add_producer = [&](std::int32_t p) {
    if (node_of[p] != kNone) {
      srcs.push_back(p);
    } else {
      const Range r = forwards[p];
      srcs.insert(srcs.end(), forwarded.begin() + r.begin, forwarded.begin() + r.end);
    }
  };

  // Sized up front: baselines keep their DFGs, so no slack capacity.
  BlockDfg g;
  g.nodes.reserve(static_cast<std::size_t>(
      std::count_if(block.instrs.begin(), block.instrs.end(), [](const ir::Instr& in) {
        return !ir::IsTerminator(in.op) && !IsRegisterTransfer(in.op);
      })));
  for (std::size_t i = 0; i < n; ++i) {
    const ir::Instr& in = block.instrs[i];
    if (ir::IsTerminator(in.op)) continue;
    const auto self = static_cast<std::int32_t>(i);
    srcs.clear();
    for (const ir::Operand& a : in.args) {
      if (!a.is_vreg()) continue;
      const std::int32_t v = vregs.Find(a.vreg);
      if (v != kNone) add_producer(def_of[v]);
    }
    const std::int32_t s = UsesSymbolSlot(in.op) ? syms.Add(in.sym) : kNone;
    switch (in.op) {
      case Opcode::kReadVar:
        // A value written earlier in this block flows through.
        if (var_value[s] != kNone) add_producer(var_value[s]);
        break;
      case Opcode::kLoadElem:
        // Array ordering (memory-port ops stay scheduled).
        if (last_store[s] != kNone) srcs.push_back(last_store[s]);
        loads.push_back(Load{self, newest_load[s]});
        newest_load[s] = static_cast<std::int32_t>(loads.size() - 1);
        break;
      case Opcode::kStoreElem:
        if (last_store[s] != kNone) srcs.push_back(last_store[s]);
        for (std::int32_t k = newest_load[s]; k != kNone; k = loads[k].older) {
          srcs.push_back(loads[k].instr);
        }
        newest_load[s] = kNone;
        last_store[s] = self;
        break;
      default:
        break;
    }
    std::sort(srcs.begin(), srcs.end());
    srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());

    if (IsRegisterTransfer(in.op)) {
      // Contracted: remember what it forwards.
      forwards[i] = Range{forwarded.size(), forwarded.size() + srcs.size()};
      forwarded.insert(forwarded.end(), srcs.begin(), srcs.end());
      if (in.op == Opcode::kWriteVar) var_value[s] = self;
    } else {
      // Every source is an earlier node, so each edge is new and every
      // succs list grows in node order.
      const std::size_t to = g.nodes.size();
      DfgNode node;
      node.instr_index = i;
      node.op = in.op;
      node.preds.reserve(srcs.size());
      for (std::int32_t src : srcs) {
        LOPASS_CHECK(node_of[src] != kNone, "DFG source is not a node");
        const auto from = static_cast<std::size_t>(node_of[src]);
        node.preds.push_back(from);
        g.nodes[from].succs.push_back(to);
      }
      node_of[i] = static_cast<std::int32_t>(to);
      g.nodes.push_back(std::move(node));
    }
    if (in.result != ir::kNoVreg) def_of[vregs.Add(in.result)] = self;
  }

  // Longest path to sink (scheduling priority), reverse topological
  // sweep — node order is program order, all edges point forward.
  for (std::size_t k = g.nodes.size(); k-- > 0;) {
    int d = 0;
    for (std::size_t s : g.nodes[k].succs) d = std::max(d, g.nodes[s].depth + 1);
    g.nodes[k].depth = d;
  }
  return g;
}

}  // namespace lopass::sched
