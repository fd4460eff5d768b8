#pragma once

// Utilization rate U_R^core and hardware effort GEQ_RS of a candidate
// cluster — the algorithm of Fig. 4.
//
// Works on the list-scheduled basic blocks of a cluster, weighted by
// profiling counts (#ex_times, footnote 14). The binding walks each
// operation's sorted candidate-resource list and reuses an already
// instantiated instance when one is free ("tested whether they are
// instantiated in a previous control step"); otherwise the first —
// smallest, therefore most energy-efficient (footnote 13) — candidate
// type is instantiated, preferring types whose designer budget is not
// yet exhausted.

#include <array>
#include <cstdint>
#include <vector>

#include "ir/module.h"
#include "power/tech_library.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"
#include "sched/resource_set.h"

namespace lopass::asic {

// One scheduled basic block of the cluster plus its execution count.
struct ScheduledBlock {
  const sched::BlockDfg* dfg = nullptr;
  const sched::BlockSchedule* schedule = nullptr;
  std::uint64_t ex_times = 0;  // #ex_times from profiling
};

// Binding of one operation to a resource instance.
struct OpBinding {
  std::size_t block = 0;  // index into the ScheduledBlock span
  std::size_t node = 0;   // DFG node
  power::ResourceType type = power::ResourceType::kAlu;
  int instance = 0;       // instance index within the type
};

struct InstanceUtil {
  power::ResourceType type = power::ResourceType::kAlu;
  int instance = 0;
  std::uint64_t active_cycles = 0;  // Σ latency × ex_times (util[rs][is])
  std::uint64_t ops = 0;            // dynamic operation count
};

struct UtilizationResult {
  // U_R^core per Eq. 4: mean over instances of active/total cycles.
  double u_core = 0.0;
  // GEQ_RS: gate equivalents of all instantiated datapath resources
  // (Fig. 4 lines 16-18), excluding the controller.
  double geq = 0.0;
  // N_cyc^c: cycles to execute the whole cluster on the ASIC core.
  lopass::Cycles total_cycles = 0;
  std::array<int, power::kNumResourceTypes> instances{};
  std::vector<InstanceUtil> instance_util;
  std::vector<OpBinding> bindings;

  int total_instances() const {
    int n = 0;
    for (int c : instances) n += c;
    return n;
  }
};

// Computes U_R^core and GEQ_RS for the scheduled cluster. `rs` is the
// designer resource set used for the schedule (caps preferred
// allocation). Throws Error on malformed inputs, such as an op
// scheduled at or past its block's num_steps.
UtilizationResult ComputeUtilization(const std::vector<ScheduledBlock>& blocks,
                                     const sched::ResourceSet& rs,
                                     const power::TechLibrary& lib);

}  // namespace lopass::asic
