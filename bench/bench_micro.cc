// Infrastructure micro-benchmarks (google-benchmark): throughput of the
// substrates the partitioner is built on — the instruction-set
// simulator, the cache simulator, the block-DFG builder, the candidate
// stage (list scheduler, L4xx re-check, Fig. 4 binding) and the
// end-to-end partitioning flow.

#include <benchmark/benchmark.h>

#include "apps/app.h"
#include "asic/utilization.h"
#include "cache/cache_sim.h"
#include "common/diag.h"
#include "common/prng.h"
#include "core/partitioner.h"
#include "dsl/lower.h"
#include "interp/interpreter.h"
#include "isa/codegen.h"
#include "iss/accounting.h"
#include "iss/simulator.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"
#include "sched/validate.h"

namespace {

using namespace lopass;

const char* kKernel = R"(
var n;
array a[4096];
var acc;
func main() {
  var i;
  acc = 0;
  for (i = 0; i < n; i = i + 1) {
    acc = acc + a[i & 4095] * 3 + (a[(i * 7) & 4095] >> 2);
  }
  return acc;
})";

void BM_IssThroughput(benchmark::State& state) {
  const dsl::LoweredProgram p = dsl::Compile(kKernel);
  const isa::SlProgram prog = isa::Generate(p.module);
  const std::int64_t n = state.range(0);
  std::uint64_t instrs = 0;
  for (auto _ : state) {
    iss::Simulator sim(p.module, prog, iss::SystemConfig{});
    sim.SetScalar("n", n);
    const iss::SimResult r = sim.Run("main");
    instrs += r.instr_count;
    benchmark::DoNotOptimize(r.return_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssThroughput)->Arg(10000)->Arg(100000);

// A loop of 8 trips over `statements` straight-line assignments to
// scalars and two 8-element arrays: the shape of flowbench's
// partition-bigblock programs (about 57 K instructions a run at 1000
// statements).
std::string BigBlockSource(int statements) {
  Prng rng(7);
  auto var = [&] {
    std::string v = "v";
    v += std::to_string(rng.next_below(12));
    return v;
  };
  std::string src;
  for (int v = 0; v < 12; ++v) src += "var v" + std::to_string(v) + ";\n";
  src += "array a[8];\narray b[8];\nfunc main() {\n  var i;\n  for (i = 0; i < 8; i = i + 1) {\n";
  for (int s = 0; s < statements; ++s) {
    const std::string k = std::to_string(rng.next_below(8));
    switch (rng.next_below(3)) {
      case 0: src += "    " + var() + " = " + var() + " + " + var() + ";\n"; break;
      case 1: src += "    a[(i + " + k + ") & 7] = " + var() + " ^ b[i & 7];\n"; break;
      default: src += "    " + var() + " = (" + var() + " & a[(i + " + k + ") & 7]) << 1;\n"; break;
    }
  }
  src += "  }\n  return v0 ^ a[3];\n}\n";
  return src;
}

// The program of the trace benchmarks: kKernel over n = 100000 (Arg 0)
// or BigBlockSource(1000) (Arg 1).
struct TraceProgram {
  explicit TraceProgram(bool big)
      : big(big),
        p(dsl::Compile(big ? BigBlockSource(1000) : std::string(kKernel))),
        prog(isa::Generate(p.module)) {}
  iss::Simulator NewSimulator() const {
    iss::Simulator sim(p.module, prog, iss::SystemConfig{});
    if (!big) sim.SetScalar("n", 100000);
    return sim;
  }
  bool big;
  dsl::LoweredProgram p;
  isa::SlProgram prog;
};

// The executor alone: run the program and record its trace.
void BM_TraceExecute(benchmark::State& state) {
  const TraceProgram t(state.range(0) == 1);
  const std::uint64_t instrs = t.NewSimulator().Run("main").instr_count;
  std::uint64_t total = 0;
  for (auto _ : state) {
    iss::Simulator sim = t.NewSimulator();
    const iss::Trace trace = sim.Execute("main");
    benchmark::DoNotOptimize(trace.return_value);
    total += instrs;
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceExecute)->Arg(0)->Arg(1);

// The accounting pass alone, all software, on tables built once: what
// the initial run adds to the executor and what a line-15
// re-simulation costs.
void BM_TraceAccount(benchmark::State& state) {
  const TraceProgram t(state.range(0) == 1);
  const iss::Accounting accounting(t.p.module, t.prog);
  const iss::Trace trace = t.NewSimulator().Execute("main");
  std::uint64_t total = 0;
  for (auto _ : state) {
    const iss::SimResult r = accounting.Account(trace, iss::HwPartition{}, iss::SystemConfig{});
    total += r.instr_count;
    benchmark::DoNotOptimize(r.up_cycles);
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
  state.counters["trace_bytes"] = static_cast<double>(trace.bytes());
}
BENCHMARK(BM_TraceAccount)->Arg(0)->Arg(1);

// Simulator::Run on the big block: execute and account with a fresh
// accounting table per run, the set-up a one-off run pays.
void BM_IssBigBlockRun(benchmark::State& state) {
  const TraceProgram t(true);
  std::uint64_t total = 0;
  for (auto _ : state) {
    iss::Simulator sim = t.NewSimulator();
    total += sim.Run("main").instr_count;
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssBigBlockRun);

void BM_InterpreterThroughput(benchmark::State& state) {
  const dsl::LoweredProgram p = dsl::Compile(kKernel);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    interp::Interpreter it(p.module);
    it.SetScalar("n", state.range(0));
    ops += it.Run("main").steps;
  }
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput)->Arg(10000);

void BM_CacheSim(benchmark::State& state) {
  cache::CacheSim c(power::CacheGeometry{static_cast<std::uint32_t>(state.range(0)),
                                          16, 2, 32},
                    cache::WritePolicy::kWriteBackAllocate);
  Prng rng(42);
  std::vector<std::uint32_t> trace;
  for (int i = 0; i < 4096; ++i) trace.push_back(static_cast<std::uint32_t>(rng.next_below(1 << 16)) & ~3u);
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    for (std::uint32_t a : trace) benchmark::DoNotOptimize(c.Access(a, (a & 4u) != 0));
    accesses += trace.size();
  }
  state.counters["access/s"] = benchmark::Counter(
      static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheSim)->Arg(1024)->Arg(8192);

// What the accounting pass feeds the I-cache: sequential word fetches
// round a 1.5 KB loop that fits the default 2 KB direct-mapped cache,
// as MPG's code does. After the first lap every access hits, three in
// four on the line the previous fetch touched.
void BM_CacheSimFetchLoop(benchmark::State& state) {
  cache::CacheSim c(power::CacheGeometry{}, cache::WritePolicy::kWriteBackAllocate);
  std::vector<std::uint32_t> trace;
  for (std::uint32_t a = 0; a < 1536; a += 4) trace.push_back(0x1000 + a);
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    // The pass branches on each result; a clobber per access would
    // spill the inlined lookup's state to memory.
    std::uint32_t hits = 0;
    for (std::uint32_t a : trace) hits += c.Access(a, false);
    benchmark::DoNotOptimize(hits);
    accesses += trace.size();
  }
  state.counters["access/s"] = benchmark::Counter(
      static_cast<double>(accesses), benchmark::Counter::kIsRate);
  state.counters["miss_rate"] = c.stats().miss_rate();
}
BENCHMARK(BM_CacheSimFetchLoop);

// Synthetic block: a long sum over array loads, `terms` terms of about
// five DFG ops each. The frontend bounds an operator chain at 256
// levels, so the sum is split into statements of at most 128 terms.
// Returns its biggest block.
ir::BasicBlock LongExpressionBlock(std::int64_t terms) {
  std::string body = "  var s;\n  s = a";
  for (int i = 0; i < terms; ++i) {
    if (i > 0 && i % 128 == 0) body += ";\n  s = s";
    body += " + m[(a + " + std::to_string(i) + ") & 255] * " + std::to_string(i % 9 + 1);
  }
  const dsl::LoweredProgram p =
      dsl::Compile("array m[256];\nfunc main(a) {\n" + body + ";\n  return s;\n}\n");
  ir::BasicBlock biggest;
  for (const ir::BasicBlock& b : p.module.function(0).blocks) {
    if (b.instrs.size() > biggest.instrs.size()) biggest = b;
  }
  return biggest;
}

void BM_BuildBlockDfg(benchmark::State& state) {
  const ir::BasicBlock block = LongExpressionBlock(state.range(0));
  std::size_t ops = 0;
  for (auto _ : state) {
    const sched::BlockDfg dfg = sched::BuildBlockDfg(block);
    ops = dfg.size();
    benchmark::DoNotOptimize(dfg.nodes.data());
  }
  state.counters["ops"] = static_cast<double>(ops);
}
BENCHMARK(BM_BuildBlockDfg)->Arg(16)->Arg(64)->Arg(256)->Arg(820);

// The candidate-stage benchmarks' block: LongExpressionBlock(terms),
// or for terms 0 the loop body of BigBlockSource(750), about 3K ops
// (the shape of flowbench's partition-bigblock).
sched::BlockDfg CandidateDfg(std::int64_t terms) {
  if (terms > 0) return sched::BuildBlockDfg(LongExpressionBlock(terms));
  const dsl::LoweredProgram p = dsl::Compile(BigBlockSource(750));
  sched::BlockDfg biggest;
  for (const ir::BasicBlock& b : p.module.function(0).blocks) {
    sched::BlockDfg g = sched::BuildBlockDfg(b);
    if (g.size() > biggest.size()) biggest = std::move(g);
  }
  return biggest;
}

void BM_ListSchedulerScaling(benchmark::State& state) {
  const sched::BlockDfg dfg = CandidateDfg(state.range(0));
  const auto sets = sched::DefaultDesignerSets();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::ListSchedule(dfg, sets[1], power::TechLibrary::Cmos6()).num_steps);
  }
  state.counters["ops"] = static_cast<double>(dfg.size());
}
BENCHMARK(BM_ListSchedulerScaling)->Arg(16)->Arg(64)->Arg(256)->Arg(820)->Arg(0);

// Fig. 4 binding of one list-scheduled block.
void BM_ComputeUtilization(benchmark::State& state) {
  const sched::BlockDfg dfg = CandidateDfg(state.range(0));
  const sched::ResourceSet rs = sched::DefaultDesignerSets()[1];
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  const sched::BlockSchedule schedule = sched::ListSchedule(dfg, rs, lib);
  const std::vector<asic::ScheduledBlock> blocks{{&dfg, &schedule, 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(asic::ComputeUtilization(blocks, rs, lib).geq);
  }
  state.counters["ops"] = static_cast<double>(dfg.size());
}
BENCHMARK(BM_ComputeUtilization)->Arg(16)->Arg(64)->Arg(256)->Arg(820)->Arg(0);

// The L4xx re-check of one list-scheduled block (it finds nothing).
void BM_ValidateSchedule(benchmark::State& state) {
  const sched::BlockDfg dfg = CandidateDfg(state.range(0));
  const sched::ResourceSet rs = sched::DefaultDesignerSets()[1];
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  const sched::BlockSchedule schedule = sched::ListSchedule(dfg, rs, lib);
  for (auto _ : state) {
    DiagnosticSink sink;
    benchmark::DoNotOptimize(sched::ValidateSchedule(dfg, schedule, rs, lib, sink));
  }
  state.counters["ops"] = static_cast<double>(dfg.size());
}
BENCHMARK(BM_ValidateSchedule)->Arg(16)->Arg(64)->Arg(256)->Arg(820)->Arg(0);

void BM_PartitionerEndToEnd(benchmark::State& state) {
  const apps::Application app = apps::GetApplication("3d");
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::RunApplication(app, 1).partitioned());
  }
}
BENCHMARK(BM_PartitionerEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
