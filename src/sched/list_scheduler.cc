#include "sched/list_scheduler.h"

#include <algorithm>

#include "common/error.h"
#include "common/fault.h"
#include "ir/opcode.h"
#include "sched/asap_alap.h"

namespace lopass::sched {

using power::ResourceType;

BlockSchedule ListSchedule(const BlockDfg& dfg, const ResourceSet& rs,
                           const power::TechLibrary& lib,
                           const SchedulerOptions& options) {
  fault::MaybeInject("schedule");
  BlockSchedule sched;
  sched.ops.resize(dfg.size());
  if (dfg.size() == 0) {
    sched.num_steps = 0;
    return sched;
  }

  const double period = lib.params().clock_period().seconds;

  // busy_until[type] holds, per instance, the first step it is free.
  std::array<std::vector<std::uint32_t>, power::kNumResourceTypes> busy_until;
  for (int t = 0; t < power::kNumResourceTypes; ++t) {
    busy_until[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(std::max(0, rs.count[static_cast<std::size_t>(t)])), 0);
  }

  // Priority key: depth (default) or negated mobility (least slack
  // first).
  std::vector<int> priority(dfg.size(), 0);
  if (options.priority == SchedulerOptions::Priority::kMobility) {
    const std::vector<std::uint32_t> mob = Mobility(dfg, lib);
    for (std::size_t n = 0; n < dfg.size(); ++n) {
      priority[n] = -static_cast<int>(mob[n]);
    }
  } else {
    for (std::size_t n = 0; n < dfg.size(); ++n) priority[n] = dfg.nodes[n].depth;
  }

  std::vector<int> unscheduled_preds(dfg.size());
  // Combinational delay accumulated within an op's final control step
  // (for chaining).
  std::vector<double> chain_delay(dfg.size(), 0.0);
  std::vector<std::size_t> ready;
  for (std::size_t n = 0; n < dfg.size(); ++n) {
    unscheduled_preds[n] = static_cast<int>(dfg.nodes[n].preds.size());
    if (unscheduled_preds[n] == 0) ready.push_back(n);
  }

  // Checks whether node n may start at `step`, given scheduled preds.
  // Returns the accumulated chain delay at n's step, or a negative
  // value if not allowed.
  auto admissible = [&](std::size_t n, std::uint32_t step, double own_delay) -> double {
    double chained = 0.0;
    for (std::size_t p : dfg.nodes[n].preds) {
      const ScheduledOp& sp = sched.ops[p];
      const std::uint32_t finish = sp.step + static_cast<std::uint32_t>(sp.latency);
      if (step >= finish) continue;  // pred result registered
      if (!options.enable_chaining) return -1.0;
      // Chaining: only through single-cycle preds in the same step.
      if (sp.latency != 1 || step != sp.step) return -1.0;
      chained = std::max(chained, chain_delay[p]);
    }
    const double total = chained + own_delay;
    if (chained > 0.0 && total > period) return -1.0;
    return total;
  };

  std::size_t remaining = dfg.size();
  std::uint32_t step = 0;
  std::uint32_t makespan = 0;

  while (remaining > 0) {
    CheckCancel(options.cancel, "list schedule");
    LOPASS_CHECK(step < 4'000'000,
                 "list scheduler iteration cap (4000000 steps) exceeded without "
                 "scheduling every op (resource set too small or cyclic DFG?)");
    // Highest priority first; ties by program order.
    std::sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
      if (priority[a] != priority[b]) return priority[a] > priority[b];
      return a < b;
    });

    bool progressed = true;
    while (progressed) {
      progressed = false;
      std::vector<std::size_t> next_ready;
      for (std::size_t n : ready) {
        const auto candidates = CandidateResources(dfg.nodes[n].op);
        LOPASS_CHECK(!candidates.empty(),
                     std::string("operation not HW-mappable: ") +
                         ir::OpcodeName(dfg.nodes[n].op));
        bool placed = false;
        for (ResourceType t : candidates) {
          const double delay_ok =
              admissible(n, step, lib.spec(t).min_cycle_time.seconds);
          // Data not ready, or the chain would exceed the period with
          // this (slower) resource — a faster candidate might still fit.
          if (delay_ok < 0.0) continue;
          auto& inst = busy_until[static_cast<std::size_t>(t)];
          for (std::uint32_t i = 0; i < inst.size(); ++i) {
            if (inst[i] <= step) {
              const Cycles lat = lib.spec(t).op_latency;
              inst[i] = step + static_cast<std::uint32_t>(lat);
              ScheduledOp& so = sched.ops[n];
              so.node = n;
              so.step = step;
              so.type = t;
              so.latency = lat;
              chain_delay[n] = delay_ok;
              if (delay_ok > lib.spec(t).min_cycle_time.seconds) ++sched.chained_ops;
              makespan = std::max(makespan, step + static_cast<std::uint32_t>(lat));
              placed = true;
              break;
            }
          }
          if (placed) break;
        }
        if (!placed) {
          // Either data not ready, no free instance, or the set lacks
          // every candidate type (a configuration error).
          bool feasible = false;
          for (ResourceType t : candidates) {
            if (!busy_until[static_cast<std::size_t>(t)].empty()) feasible = true;
          }
          LOPASS_CHECK(feasible, std::string("resource set '") + rs.name +
                                     "' provides no resource for " +
                                     ir::OpcodeName(dfg.nodes[n].op));
          next_ready.push_back(n);
          continue;
        }
        --remaining;
        for (std::size_t s : dfg.nodes[n].succs) {
          if (--unscheduled_preds[s] == 0) {
            // With chaining the successor may be schedulable in this
            // very step: put it in the current working set.
            next_ready.push_back(s);
            progressed = true;
          }
        }
      }
      ready = std::move(next_ready);
      // With chaining enabled, newly readied successors may issue in
      // the same step; loop again. Without chaining, one pass suffices
      // because admissible() rejects same-step dependents.
      if (!options.enable_chaining) break;
    }
    ++step;
  }

  sched.num_steps = std::max(makespan, 1u);
  return sched;
}

}  // namespace lopass::sched
