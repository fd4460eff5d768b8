#pragma once

// Force-directed scheduling (Paulin & Knight, 1989).
//
// The classic *time-constrained* counterpart of the paper's
// resource-constrained list scheduler: given a latency budget, place
// every operation in the control step that best balances the expected
// concurrency ("distribution graph") of its resource type, thereby
// minimizing the number of functional-unit instances needed. Used here
// as an allocation estimator — bench_ablation_fds asks whether the
// designer resource sets the paper's flow relies on could have been
// derived automatically at the list schedule's latency. The Fig. 1
// flow only list-schedules, so this scheduler lives beside its
// ablation, outside the `lopass` library.

#include <array>
#include <cstdint>
#include <vector>

#include "power/tech_library.h"
#include "sched/dfg.h"

namespace lopass::sched {

struct FdsSchedule {
  // Start step per DFG node.
  std::vector<std::uint32_t> step;
  // Resource type each op was mapped to (its smallest candidate).
  std::vector<power::ResourceType> type;
  std::uint32_t latency = 0;  // the budget actually used (makespan <= latency)
  // Peak concurrency per resource type = the implied allocation.
  std::array<int, power::kNumResourceTypes> allocation{};

  int total_units() const {
    int n = 0;
    for (int c : allocation) n += c;
    return n;
  }
};

// Schedules `dfg` within `latency` control steps (0 = use the critical
// path length). Throws if the budget is below the critical path.
FdsSchedule ForceDirectedSchedule(const BlockDfg& dfg, const power::TechLibrary& lib,
                                  std::uint32_t latency = 0);

}  // namespace lopass::sched
