// Example: using the substrates below the partitioner directly —
// compile a DSL kernel to SL32, run the instruction-level energy
// simulator (Tiwari-style, [12]) and inspect the whole-system energy
// breakdown and cache behaviour, like the paper's "Core Energy
// Estimation" block in isolation.
//
// Build & run: cmake --build build && ./build/examples/energy_iss

#include <cstdio>

#include "common/error.h"
#include "dsl/lower.h"
#include "isa/codegen.h"
#include "iss/simulator.h"

namespace {

const char* kKernel = R"dsl(
var n;
array data[2048];
var sum; var sumsq;

func main() {
  var i;
  sum = 0;
  sumsq = 0;
  for (i = 0; i < n; i = i + 1) {
    var v;
    v = data[i];
    sum = sum + v;
    sumsq = sumsq + v * v;
  }
  // variance * n^2 = n*sumsq - sum^2
  return n * sumsq - sum * sum;
}
)dsl";

}  // namespace

int main() try {
  using namespace lopass;

  dsl::LoweredProgram program = dsl::Compile(kKernel);
  const isa::SlProgram code = isa::Generate(program.module);
  std::printf("SL32 program: %zu instructions, %u bytes of data\n\n", code.code.size(),
              code.data_size_bytes);

  // Two system variants: a comfortable cache and a tiny one.
  for (const std::uint32_t dcache_bytes : {2048u, 128u}) {
    iss::SystemConfig config;
    config.dcache.capacity_bytes = dcache_bytes;

    iss::Simulator sim(program.module, code, config);
    sim.SetScalar("n", 2048);
    std::vector<std::int64_t> vals;
    for (int i = 0; i < 2048; ++i) vals.push_back((i * 31) % 199);
    sim.FillArray("data", vals);

    const iss::SimResult r = sim.Run("main");
    std::printf("d-cache %u B: result=%lld\n", dcache_bytes,
                static_cast<long long>(r.return_value));
    std::printf("  %llu instructions, %llu cycles (CPI %.2f)\n",
                static_cast<unsigned long long>(r.instr_count),
                static_cast<unsigned long long>(r.up_cycles),
                static_cast<double>(r.up_cycles) / static_cast<double>(r.instr_count));
    std::printf("  d-cache: %llu accesses, miss rate %.2f%%\n",
                static_cast<unsigned long long>(r.dcache_stats.accesses()),
                100.0 * r.dcache_stats.miss_rate());
    std::printf("  energy: uP %s, i$ %s, d$ %s, mem %s, bus %s -> total %s\n",
                FormatEnergy(r.energy.up_core).c_str(),
                FormatEnergy(r.energy.icache).c_str(),
                FormatEnergy(r.energy.dcache).c_str(),
                FormatEnergy(r.energy.mem).c_str(), FormatEnergy(r.energy.bus).c_str(),
                FormatEnergy(r.energy.total()).c_str());
    std::printf("  uP datapath utilization U_uP = %.3f\n\n", r.up_utilization);
  }

  std::printf(
      "The tiny d-cache turns array reads into memory traffic: more stall\n"
      "cycles, more bus/memory energy — the whole-system effect the paper's\n"
      "partitioner re-estimates for every candidate partition.\n");
  return 0;
} catch (const lopass::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
