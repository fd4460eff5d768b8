#include "core/hotspots.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/table.h"

namespace lopass::core {

std::vector<HotspotEntry> ComputeHotspots(const ClusterChain& chain,
                                          const iss::SimResult& initial) {
  std::vector<HotspotEntry> out;
  for (const Cluster& c : chain.clusters) {
    HotspotEntry e;
    e.cluster_id = c.id;
    e.label = c.label;
    e.hw_candidate = c.hw_candidate;
    const iss::BlockCost cost = initial.CostOfBlocks(c.blocks);
    e.cycles = cost.cycles;
    e.energy = cost.energy;
    e.instrs = cost.instrs;
    if (initial.up_cycles > 0) {
      e.cycle_share = static_cast<double>(e.cycles) / static_cast<double>(initial.up_cycles);
    }
    if (initial.energy.up_core.joules > 0.0) {
      e.energy_share = e.energy.joules / initial.energy.up_core.joules;
    }
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const HotspotEntry& a, const HotspotEntry& b) {
    return a.energy.joules > b.energy.joules;
  });
  return out;
}

std::string RenderHotspots(const std::vector<HotspotEntry>& entries) {
  TextTable t;
  t.set_header({"cluster", "HW?", "cycles", "cycle%", "uP energy", "energy%",
                "instrs"});
  for (const HotspotEntry& e : entries) {
    char cyc_share[32], en_share[32];
    std::snprintf(cyc_share, sizeof cyc_share, "%.1f", 100.0 * e.cycle_share);
    std::snprintf(en_share, sizeof en_share, "%.1f", 100.0 * e.energy_share);
    t.add_row({e.label, e.hw_candidate ? "yes" : "no", std::to_string(e.cycles),
               cyc_share, FormatEnergy(e.energy), en_share, std::to_string(e.instrs)});
  }
  std::ostringstream os;
  os << "software hotspots (initial implementation, cluster granularity):\n"
     << t.ToString();
  return os.str();
}

}  // namespace lopass::core
