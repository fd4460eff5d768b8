// Quickstart: partition a small DSP application for low power.
//
// Demonstrates the whole lopass API surface end to end:
//   1. write a behavioral description in the DSL,
//   2. compile it,
//   3. run the low-power hardware/software partitioner on a workload,
//   4. inspect what was mapped to the ASIC core and what it bought.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "common/error.h"
#include "core/partitioner.h"
#include "dsl/lower.h"

namespace {

// A small FIR-filter application: one hot convolution loop plus a
// lightweight post-processing scan.
const char* kSource = R"dsl(
var n;
array signal[2048];
array coeff[16];
array out[2048];
var peak;

func main() {
  var i; var j;
  // Hot loop: 16-tap FIR over the signal.
  for (i = 0; i < n - 16; i = i + 1) {
    var acc;
    acc = 0;
    for (j = 0; j < 16; j = j + 1) {
      acc = acc + signal[i + j] * coeff[j];
    }
    out[i] = acc >> 8;
  }
  // Cold loop: peak detection.
  peak = 0;
  for (i = 0; i < n - 16; i = i + 1) {
    peak = max(peak, abs(out[i]));
  }
  return peak;
}
)dsl";

}  // namespace

int main() try {
  using namespace lopass;

  // 1-2. Compile the behavioral description to the IR + region tree.
  dsl::LoweredProgram program = dsl::Compile(kSource);
  std::printf("compiled: %zu functions, %zu operations\n",
              program.module.num_functions(), program.module.num_ops());

  // 3. Describe the workload (the "input stimuli pattern").
  core::Workload workload;
  workload.setup = [](core::DataTarget& t) {
    t.SetScalar("n", 1024);
    std::vector<std::int64_t> sig, co;
    for (int i = 0; i < 1024; ++i) sig.push_back((i * 37) % 256 - 128);
    for (int i = 0; i < 16; ++i) co.push_back(16 - (i - 8) * (i - 8) / 4);
    t.FillArray("signal", sig);
    t.FillArray("coeff", co);
  };

  // 4. Run the partitioner (Fig. 1 / Fig. 5 of the paper).
  core::Partitioner partitioner(program.module, program.regions);
  core::PartitionResult result = partitioner.Run(workload);

  std::printf("\ninitial design:     %s total, %llu cycles\n",
              FormatEnergy(result.initial_run.energy.total()).c_str(),
              static_cast<unsigned long long>(result.initial_run.up_cycles));

  if (!result.partitioned()) {
    std::printf("partitioner kept everything in software.\n");
    return 0;
  }
  for (const core::PartitionDecision& d : result.selected) {
    std::printf("mapped to ASIC core: %s  (resource set %s, %.0f cells, U_R=%.3f)\n",
                d.cluster_label.c_str(), d.core.resource_set.c_str(), d.core.cells,
                d.core.utilization);
  }

  const core::AppRow row = result.ToRow("quickstart");
  std::printf("partitioned design: %s total, %llu cycles (uP %llu + ASIC %llu)\n",
              FormatEnergy(row.partitioned.total()).c_str(),
              static_cast<unsigned long long>(row.partitioned_time.total()),
              static_cast<unsigned long long>(row.partitioned_time.up_cycles),
              static_cast<unsigned long long>(row.partitioned_time.asic_cycles));
  std::printf("energy saving: %s%%   execution-time change: %s%%\n",
              FormatPercent(row.saving_percent()).c_str(),
              FormatPercent(row.time_change_percent()).c_str());
  return 0;
} catch (const lopass::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
