#pragma once

// The traced run's view of one job: a cold run through the public
// entry points, then a stage-by-stage replay of Partitioner::Run that
// calls each module's public functions under its own span.

#include <optional>
#include <string>

#include "core/partitioner.h"
#include "core/workload.h"
#include "dsl/lower.h"
#include "trace.h"

namespace flowbench {

// One job exactly as the explore runner builds it (resource_sets
// narrowed to the job's set, the app's workload at the sweep's scale),
// or one big-block program with the default options.
struct Job {
  std::string source;
  lopass::core::PartitionOptions options;
  lopass::core::Workload workload;
};

// Fresh dsl::Compile plus a fresh Partitioner::Run of `job`, under a
// "runner.job" span with "dsl.compile" and "core.partition" children.
// `program` receives the compiled program for ReplayJob.
lopass::core::PartitionResult RunColdJob(const Job& job, Tracer& tracer,
                                         std::optional<lopass::dsl::LoweredProgram>& program);

// Re-executes the stages of Partitioner::Run for `job` inside a
// "core.replay" span, one child span per module call (isa.codegen,
// interp.run, iss.run, core.decompose, core.traffic, sched.dfg,
// sched.list_schedule, analysis.validate, asic.utilization,
// asic.synthesize), following the candidates and the decision recorded
// in `result`. Adds the simulated counts (iss.instrs, cache.accesses,
// cache.misses, interp.ops, sched.schedules, sched.dfg_ops,
// core.evaluations, core.feasible) to the tracer. Returns "" when every
// replayed artifact agrees with `result`, else what differed.
std::string ReplayJob(const Job& job, const lopass::dsl::LoweredProgram& program,
                      const lopass::core::PartitionResult& result, Tracer& tracer);

}  // namespace flowbench
