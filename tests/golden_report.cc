// Golden-reference report: runs the full partitioning flow for one
// bundled application at the test scale and prints every Table-1
// quantity with fixed formatting. The output is compared byte-for-byte
// against tests/data/golden/<app>.txt (golden_check.cmake), so any
// change to the objective function, the schedulers, the energy model,
// or the cluster chain shows up as a diff in review instead of a
// silent drift. Regenerate intentionally with:
//
//   cmake --build build -t regen-golden
//
// Formatting notes: percents and utilization print with %.6f, energies
// in microjoules with %.6f, GEQ (gate-equivalent cells) with %.1f —
// wide enough that a real model change always moves a digit, fixed so
// the bytes are platform-stable (all inputs are deterministic).

#include <cstdio>
#include <cstring>
#include <string>

#include "apps/app.h"
#include "core/partitioner.h"
#include "core/report.h"

namespace {

void PrintEnergy(const char* label, const lopass::iss::CoreEnergies& e) {
  const auto uj = [](lopass::Energy v) { return v.joules * 1e6; };
  std::printf("%s.icache_uJ: %.6f\n", label, uj(e.icache));
  std::printf("%s.dcache_uJ: %.6f\n", label, uj(e.dcache));
  std::printf("%s.mem_uJ: %.6f\n", label, uj(e.mem));
  std::printf("%s.bus_uJ: %.6f\n", label, uj(e.bus));
  std::printf("%s.up_core_uJ: %.6f\n", label, uj(e.up_core));
  std::printf("%s.asic_core_uJ: %.6f\n", label, uj(e.asic_core));
  std::printf("%s.total_uJ: %.6f\n", label, uj(e.total()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: golden_report APP\n");
    return 2;
  }
  try {
    const lopass::apps::Application app = lopass::apps::GetApplication(argv[1]);
    const lopass::core::PartitionResult result =
        lopass::apps::RunApplication(app, /*scale=*/1);
    const lopass::core::AppRow row = result.ToRow(app.name);

    std::printf("app: %s\n", row.app.c_str());
    std::printf("resource_set: %s\n", row.resource_set.c_str());
    std::printf("cluster: %s\n", row.cluster.c_str());
    std::printf("U_R: %.6f\n", row.asic_utilization);
    std::printf("GEQ: %.1f\n", row.asic_cells);
    PrintEnergy("I", row.initial);
    PrintEnergy("P", row.partitioned);
    std::printf("I.cycles: %lld\n",
                static_cast<long long>(row.initial_time.total()));
    std::printf("P.up_cycles: %lld\n",
                static_cast<long long>(row.partitioned_time.up_cycles));
    std::printf("P.asic_cycles: %lld\n",
                static_cast<long long>(row.partitioned_time.asic_cycles));
    std::printf("saving_percent: %.6f\n", row.saving_percent());
    std::printf("time_change_percent: %.6f\n", row.time_change_percent());
    return result.degraded() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
