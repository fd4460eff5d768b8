// Example: low-power partitioning of an image-processing pipeline —
// the class of "computation and memory intensive applications like
// those found in ... cell phones, digital cameras" the paper targets.
//
// The pipeline: white-balance -> 3x3 sharpen -> gamma-ish tone map ->
// histogram. The sharpen stage is the natural ASIC candidate. The
// example also demonstrates footnote 4: the standard cores (caches) of
// the partitioned system are adapted, shrinking the i-cache for the
// small residual software.
//
// Build & run: cmake --build build && ./build/examples/image_pipeline

#include <cstdio>

#include "common/error.h"
#include "common/prng.h"
#include "core/partitioner.h"
#include "core/report.h"
#include "dsl/lower.h"

namespace {

const char* kPipeline = R"dsl(
var w;         // 64 (row stride uses << 6)
var h;
var gain_r;    // white balance gains, Q8
var hist_peak;

array img[8192];
array sharp[8192];
array hist[64];

func main() {
  var x; var y;

  // Stage 1: white balance (per-pixel multiply).
  for (y = 0; y < h; y = y + 1) {
    var row;
    row = y << 6;
    for (x = 0; x < w; x = x + 1) {
      img[row + x] = min((img[row + x] * gain_r) >> 8, 255);
    }
  }

  // Stage 2: 3x3 sharpen (hot candidate).
  for (y = 1; y < h - 1; y = y + 1) {
    var srow; var up; var dn;
    srow = y << 6;
    up = srow - 64;
    dn = srow + 64;
    for (x = 1; x < w - 1; x = x + 1) {
      var acc;
      acc = img[srow + x] * 9
          - img[up + x] - img[dn + x]
          - img[srow + x - 1] - img[srow + x + 1]
          - img[up + x - 1] - img[up + x + 1]
          - img[dn + x - 1] - img[dn + x + 1];
      sharp[srow + x] = min(max(acc, 0), 255);
    }
  }

  // Stage 3: tone map (table-free, shift/add curve).
  for (y = 1; y < h - 1; y = y + 1) {
    var row2;
    row2 = y << 6;
    for (x = 1; x < w - 1; x = x + 1) {
      var v;
      v = sharp[row2 + x];
      sharp[row2 + x] = v - ((v * v) >> 9);
    }
  }

  // Stage 4: histogram.
  for (y = 1; y < h - 1; y = y + 1) {
    var row3;
    row3 = y << 6;
    for (x = 1; x < w - 1; x = x + 1) {
      var bin;
      bin = sharp[row3 + x] >> 2;
      hist[min(bin, 63)] = hist[min(bin, 63)] + 1;
    }
  }
  hist_peak = 0;
  for (x = 0; x < 64; x = x + 1) {
    hist_peak = max(hist_peak, hist[x]);
  }
  return hist_peak;
}
)dsl";

}  // namespace

int main() try {
  using namespace lopass;

  dsl::LoweredProgram program = dsl::Compile(kPipeline);

  core::Workload workload;
  workload.setup = [](core::DataTarget& t) {
    t.SetScalar("w", 64);
    t.SetScalar("h", 96);
    t.SetScalar("gain_r", 290);
    Prng rng(0x1111);
    std::vector<std::int64_t> pix;
    for (int i = 0; i < 64 * 96; ++i) pix.push_back(rng.next_in(0, 255));
    t.FillArray("img", pix);
  };

  // Designer interaction (§3.5): adapt the partitioned system's caches.
  core::PartitionOptions options;
  options.partitioned_config = iss::SystemConfig{};
  options.partitioned_config->icache.capacity_bytes = 1024;
  options.partitioned_config->dcache.capacity_bytes = 1024;

  core::Partitioner partitioner(program.module, program.regions, options);
  const core::PartitionResult result = partitioner.Run(workload);

  std::printf("candidate evaluations (cluster x resource set):\n");
  for (const core::ClusterEvaluation& ev : result.evaluations) {
    std::printf("  %-10s x %-10s  %s  U_R=%.3f U_uP=%.3f\n", ev.cluster_label.c_str(),
                ev.resource_set.c_str(), ev.feasible ? "feasible  " : "infeasible",
                ev.u_asic, ev.u_up);
  }

  if (!result.partitioned()) {
    std::printf("\nno profitable partition found.\n");
    return 0;
  }

  const core::PartitionDecision& d = result.selected.front();
  std::printf("\nmapped to ASIC core: %s (%s, %.0f cells, U_R=%.3f, %.1f ns clock)\n",
              d.cluster_label.c_str(), d.core.resource_set.c_str(), d.core.cells,
              d.core.utilization, d.core.clock_period.nanoseconds());
  std::printf("boundary transfers: %llu words in, %llu words out\n",
              static_cast<unsigned long long>(d.transfers.up_to_mem_words),
              static_cast<unsigned long long>(d.transfers.asic_to_mem_words));

  std::vector<core::AppRow> rows{result.ToRow("imgpipe")};
  std::printf("\n%s", core::RenderTable1(rows).ToString().c_str());
  std::printf("energy saving %s%%, execution-time change %s%%\n",
              FormatPercent(rows[0].saving_percent()).c_str(),
              FormatPercent(rows[0].time_change_percent()).c_str());
  return 0;
} catch (const lopass::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
