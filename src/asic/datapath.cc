#include "asic/datapath.h"

#include <algorithm>
#include <map>

#include "common/error.h"

namespace lopass::asic {

namespace {

int UnitKey(power::ResourceType t, int instance) {
  return static_cast<int>(t) * 256 + instance;
}

}  // namespace

Datapath BuildDatapath(const std::vector<ScheduledBlock>& blocks,
                       const UtilizationResult& util) {
  Datapath dp;

  // Unit table from the utilization result.
  std::map<int, std::size_t> unit_index;  // UnitKey -> index in dp.units
  for (const InstanceUtil& u : util.instance_util) {
    DatapathUnit unit;
    unit.type = u.type;
    unit.instance = u.instance;
    unit.ops = u.ops;
    unit.active_cycles = u.active_cycles;
    unit_index[UnitKey(u.type, u.instance)] = dp.units.size();
    dp.units.push_back(std::move(unit));
  }

  // Per (block, node) -> bound unit.
  std::map<std::pair<std::size_t, std::size_t>, int> bound;
  for (const OpBinding& b : util.bindings) {
    bound[{b.block, b.node}] = UnitKey(b.type, b.instance);
  }

  // Walk the DFGs: every edge producer->consumer adds a steering leg at
  // the consumer; ops without producers read the register file.
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const sched::BlockDfg* dfg = blocks[bi].dfg;
    LOPASS_CHECK(dfg != nullptr, "datapath needs the scheduled DFGs");
    for (std::size_t n = 0; n < dfg->size(); ++n) {
      const auto it = bound.find({bi, n});
      if (it == bound.end()) continue;
      DatapathUnit& consumer = dp.units[unit_index.at(it->second)];
      if (dfg->nodes[n].preds.empty()) {
        if (std::find(consumer.producers.begin(), consumer.producers.end(), -1) ==
            consumer.producers.end()) {
          consumer.producers.push_back(-1);
        }
      }
      for (std::size_t p : dfg->nodes[n].preds) {
        const auto pit = bound.find({bi, p});
        const int key = pit == bound.end() ? -1 : pit->second;
        if (std::find(consumer.producers.begin(), consumer.producers.end(), key) ==
            consumer.producers.end()) {
          consumer.producers.push_back(key);
        }
      }
    }
    dp.fsm_states += std::max(blocks[bi].schedule->num_steps, 1u);
  }
  dp.fsm_states += 1;  // idle state

  // Interconnect cost: a k-leg 32-bit mux is ~25 GEQ per leg beyond the
  // first; steering one operand through it costs ~15 pJ at 3.3V.
  for (const DatapathUnit& u : dp.units) {
    const int extra_legs = std::max(0, u.mux_legs() - 1);
    dp.total_mux_legs += u.mux_legs();
    dp.mux_geq += 25.0 * extra_legs;
  }
  dp.mux_energy_per_op = Energy::from_picojoules(15.0);
  return dp;
}

}  // namespace lopass::asic
