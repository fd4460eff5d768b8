// Example: the designer-in-the-loop exploration of §3.5.
//
// "the designer does have manifold possibilities of interaction like
// defining several sets of resources, defining constraints like the
// total number of clusters to be selected or to modify the objective
// function according to the peculiarities of an application."
//
// This example sweeps (a) custom resource sets and (b) the objective
// function's hardware weight for the paper's "3d" application, and
// prints the resulting design-space table a designer would iterate on.
//
// Build & run: cmake --build build && ./build/examples/design_space

#include <cstdio>

#include "apps/app.h"
#include "common/error.h"
#include "common/table.h"
#include "dsl/lower.h"

int main() try {
  using namespace lopass;
  using power::ResourceType;

  const apps::Application app = apps::GetApplication("3d");
  dsl::LoweredProgram program = dsl::Compile(app.dsl_source);

  // Three hand-built resource sets a designer might try for a
  // multiply-accumulate dominated vertex pipeline.
  sched::ResourceSet mac1;
  mac1.name = "1xMAC";
  mac1.set(ResourceType::kMultiplier, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kAlu, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMemoryPort, 1);
  sched::ResourceSet mac2 = mac1;
  mac2.name = "2xMAC";
  mac2.set(ResourceType::kMultiplier, 2).set(ResourceType::kAdder, 2);
  sched::ResourceSet mac3 = mac2;
  mac3.name = "3xMAC+2port";
  mac3.set(ResourceType::kMultiplier, 3)
      .set(ResourceType::kAdder, 3)
      .set(ResourceType::kMemoryPort, 2);

  TextTable t;
  t.set_header({"resource set", "G weight", "selected", "U_R", "cells", "ASIC cyc",
                "Sav%", "Chg%"});
  for (const sched::ResourceSet& rs : {mac1, mac2, mac3}) {
    for (double g : {0.25, 1.0}) {
      core::PartitionOptions opts;
      opts.resource_sets = {rs};
      opts.objective.g = g;
      core::Partitioner part(program.module, program.regions, opts);
      const core::PartitionResult r = part.Run(app.workload(app.full_scale));
      const core::AppRow row = r.ToRow("3d");
      char util[32], cells[32];
      std::snprintf(util, sizeof util, "%.3f", row.asic_utilization);
      std::snprintf(cells, sizeof cells, "%.0f", row.asic_cells);
      t.add_row({rs.name, std::to_string(g), row.cluster, util, cells,
                 std::to_string(r.asic_cycles), FormatPercent(row.saving_percent()),
                 FormatPercent(row.time_change_percent())});
    }
  }
  std::printf("design space for '3d' (vertex transform pipeline):\n%s",
              t.ToString().c_str());
  std::printf(
      "\nReading the table like the paper's designer: wider MAC datapaths cut\n"
      "ASIC cycles but lower the utilization rate U_R and add cells; a higher\n"
      "hardware weight G in the objective function pushes the choice back\n"
      "toward the leaner datapath.\n");
  return 0;
} catch (const lopass::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
