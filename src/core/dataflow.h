#pragma once

// gen/use analysis and bus-transfer energy estimation (Fig. 3, §3.3).
//
// gen[·] and use[·] follow the Aho/Sethi/Ullman definitions [16],
// applied at cluster granularity over the program's named variables and
// arrays (with call closure for clusters that invoke functions). The
// additional shared-memory traffic caused by mapping cluster c_i to the
// ASIC core is
//
//   N_µP->mem  = |gen[C_pred]  ∩ use[c_i]|       (step 1)
//              - |gen[c_{i-1}] ∩ use[c_i]|       if c_{i-1} in ASIC (2)
//   N_ASIC->mem= |gen[c_i]     ∩ use[C_succ]|    (step 3)
//              - |gen[c_i]     ∩ use[c_{i+1}]|   if c_{i+1} in ASIC (4)
//   E_trans    = (N_µP->mem + N_ASIC->mem) × E_bus_read/write  (step 5)
//
// Set sizes are measured in 32-bit words (arrays weigh their length).

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/units.h"
#include "core/cluster.h"
#include "power/cache_energy.h"
#include "power/tech_library.h"

namespace lopass::core {

struct GenUse {
  std::unordered_set<ir::SymbolId> gen;
  std::unordered_set<ir::SymbolId> use;
};

// Memoized gen/use of whole functions, transitive over calls: a call
// adds the callee's sets, plus the callee's parameters to gen (the
// caller writes them at the call site). The module must be free of
// recursion, which ir::Verify guarantees (L112).
class FunctionSummaries {
 public:
  explicit FunctionSummaries(const ir::Module& module) : module_(module) {}

  const GenUse& Of(ir::FunctionId fn);

  // Folds one operation's reads, writes and (when `include_calls`)
  // call into `gu`.
  void Add(const ir::Instr& in, GenUse& gu, bool include_calls = true);

 private:
  const ir::Module& module_;
  std::unordered_map<ir::FunctionId, GenUse> cache_;
  std::unordered_set<ir::FunctionId> in_progress_;
};

// gen/use of an arbitrary block set; `include_calls` folds in each
// callee's summary (see FunctionSummaries).
GenUse ComputeGenUse(const ir::Module& module, const std::vector<BlockRef>& blocks,
                     bool include_calls = true);

struct Transfers {
  std::uint64_t up_to_mem_words = 0;    // entry: µP deposits for the ASIC
  std::uint64_t asic_to_mem_words = 0;  // exit: ASIC deposits for the µP
  Energy energy;                        // E_trans of Fig. 3 step 5

  std::uint64_t total_words() const { return up_to_mem_words + asic_to_mem_words; }
};

class BusTrafficAnalyzer {
 public:
  BusTrafficAnalyzer(const ir::Module& module, const ClusterChain& chain,
                     const power::TechLibrary& lib, std::uint32_t memory_bytes);

  // Transfer estimate for mapping `cluster` to the ASIC core.
  // `hw_clusters` holds ids of clusters already mapped (synergy terms
  // of Fig. 3 steps 2 and 4).
  Transfers Compute(const Cluster& cluster,
                    const std::unordered_set<int>& hw_clusters = {}) const;

  const GenUse& cluster_gen_use(int cluster_id) const;

 private:
  std::uint64_t WordsOfIntersection(const std::unordered_set<ir::SymbolId>& a,
                                    const std::unordered_set<ir::SymbolId>& b) const;
  bool ChainPosInHw(int pos, const std::unordered_set<int>& hw_clusters) const;

  const ir::Module& module_;
  const ClusterChain& chain_;
  Energy per_word_energy_;
  std::vector<GenUse> gen_use_;          // per cluster id (with call closure)
  std::vector<GenUse> own_gen_use_;      // per cluster id (without call closure)
};

}  // namespace lopass::core
