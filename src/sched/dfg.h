#pragma once

// Dataflow graph over the operations of one basic block, the unit the
// list scheduler works on. Edges: virtual-register def-use plus
// variable/array ordering dependencies (RAW/WAR/WAW on symbols).

#include <cstdint>
#include <vector>

#include "ir/module.h"

namespace lopass::sched {

struct DfgNode {
  std::size_t instr_index = 0;   // index into the basic block
  ir::Opcode op = ir::Opcode::kMov;
  std::vector<std::size_t> preds;  // node indices this node depends on
  std::vector<std::size_t> succs;
  int depth = 0;  // longest path to any sink (scheduling priority)
};

struct BlockDfg {
  std::vector<DfgNode> nodes;

  std::size_t size() const { return nodes.size(); }
};

// Builds the DFG for a basic block. The terminator is excluded (it is
// realized by the ASIC core's controller, not the datapath), and so are
// pure register-transfer operations (const/mov/readvar/writevar): in a
// synthesized datapath those are register-file reads/writes and wiring,
// not scheduled operators. Their producers/consumers are connected
// directly (dependence contraction), so e.g. `writevar x; ...; readvar
// x` inside one block yields a producer->consumer edge.
// Remaining dependencies:
//  * def->use on virtual registers (through contracted copies),
//  * conservative ordering between stores and loads/stores on the same
//    array symbol (memory-port operations stay in the DFG).
// One pass in program order, linear in the block: vreg and symbol ids
// are compacted per block, so no cost depends on the module's size.
// Each node's preds and each node's succs are in ascending node order.
// The DFG depends on the block alone; core::AppBaseline builds one per
// pre-selected block and every resource set schedules it.
BlockDfg BuildBlockDfg(const ir::BasicBlock& block);

// True for opcodes realized by the register file / interconnect rather
// than a scheduled datapath resource.
bool IsRegisterTransfer(ir::Opcode op);

}  // namespace lopass::sched
