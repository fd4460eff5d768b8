#pragma once

// Post-scheduling validators (L4xx) — independent re-checks that a
// list schedule respects the DFG's precedence constraints and never
// oversubscribes the designer's resource set in any control step.
//
// Run from the partitioner when PartitionOptions::self_check is on and
// from the `lopass lint` driver. Findings accumulate in the sink; the
// validators never throw on a bad schedule.

#include <string>

#include "common/diag.h"
#include "sched/list_scheduler.h"

namespace lopass::sched {

// Validates a list schedule of `dfg` under resource set `rs`:
//  - every DFG node scheduled exactly once, indices in range   (L400)
//  - each edge p->n starts n after p finishes, or shares p's
//    step via legal operator chaining when enabled             (L401)
//  - per-type occupancy over [step, step+latency) never
//    exceeds rs (chained ops still claim their own instance)   (L402)
//  - num_steps equals the makespan (max finish step; >= 1 for
//    nonempty DFGs, 0 for empty ones)                          (L403)
//  - op latency/type match the library spec and the op's
//    candidate-resource list                                   (L404)
//
// `where` prefixes every message (e.g. "cluster 3, block 7").
// Returns true when this call added no finding.
bool ValidateSchedule(const BlockDfg& dfg, const BlockSchedule& sched,
                      const ResourceSet& rs, const power::TechLibrary& lib,
                      DiagnosticSink& sink, bool chaining_enabled = false,
                      const std::string& where = {});

}  // namespace lopass::sched
