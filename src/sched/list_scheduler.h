#pragma once

// Resource-constrained list scheduler (Fig. 1 line 8: "a simple list
// schedule is performed on the current cluster").
//
// Ready operations are prioritized by their longest path to a sink and
// assigned to the smallest available candidate resource type of the
// designer's resource set, respecting per-type instance counts and
// multi-cycle latencies.
//
// Each op's candidate list is computed once; ops with the same list
// form a class with its own ready heap, and an op enters that heap at
// the step its predecessors' results are registered. A heap entry is
// one uint64 key, the priority biased to unsigned above the inverted
// node index, so a plain < orders (priority desc, index asc). A step
// repeatedly issues the best head among classes with a free instance;
// this equals a full scan of the sorted ready list, because instances
// only get busier within a step, so an op that cannot issue stays
// blocked for the rest of it. Under chaining, the ops made ready within
// the step are then tried once each, in the order they became ready, as
// the former same-step re-scan did.

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "power/tech_library.h"
#include "sched/dfg.h"
#include "sched/resource_set.h"

namespace lopass::sched {

struct ScheduledOp {
  std::size_t node = 0;                   // DFG node index
  std::uint32_t step = 0;                 // control step the op starts in
  power::ResourceType type = power::ResourceType::kAlu;
  lopass::Cycles latency = 1;
};

struct BlockSchedule {
  std::vector<ScheduledOp> ops;    // one entry per DFG node
  std::uint32_t num_steps = 0;     // makespan in control steps
  std::uint64_t chained_ops = 0;   // ops packed by operator chaining
};

struct SchedulerOptions {
  // Operator chaining: two data-dependent single-cycle operations may
  // share a control step when their combined combinational delay fits
  // the library's system clock period (a classic HLS refinement;
  // disabled by default to match the paper's "simple list schedule").
  bool enable_chaining = false;
  // Ready-list priority: kDepth (longest path to sink, the default) or
  // kMobility (least ALAP-ASAP slack first).
  enum class Priority { kDepth, kMobility } priority = Priority::kDepth;
  // Cooperative cancellation: when set, the scheduler polls the token
  // at every control step and aborts with CancelledError once it fires
  // (the exploration runner's per-job deadline). Null = not cancellable.
  const CancelToken* cancel = nullptr;
};

// Schedules one block DFG under the resource set. Throws Error if an
// operation has no candidate resource (calls inside clusters must be
// filtered out by the caller) or the resource set provides none of the
// op's candidate types (the message names the lowest-index such op), or
// the block has more than 2^32 - 1 nodes.
BlockSchedule ListSchedule(const BlockDfg& dfg, const ResourceSet& rs,
                           const power::TechLibrary& lib,
                           const SchedulerOptions& options = SchedulerOptions{});

}  // namespace lopass::sched
