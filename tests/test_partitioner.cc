#include "core/partitioner.h"

#include <algorithm>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "asic/netlist_check.h"
#include "asic/verilog.h"
#include "common/cancel.h"
#include "common/fault.h"
#include "core/hotspots.h"
#include "dsl/lower.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"
#include "program_gen.h"

namespace lopass::core {
namespace {

// A program with one clearly profitable hot loop and cold neighbors.
const char* kHotCold = R"(
  var n;
  array sig[1024];
  array coeff[16];
  array out[1024];
  var peak;
  func main() {
    var i; var j;
    for (i = 0; i < n - 16; i = i + 1) {
      var acc;
      acc = 0;
      for (j = 0; j < 16; j = j + 1) { acc = acc + sig[i + j] * coeff[j]; }
      out[i] = acc >> 8;
    }
    peak = 0;
    for (i = 0; i < n - 16; i = i + 8) { peak = max(peak, abs(out[i])); }
    return peak;
  })";

Workload HotColdWorkload(int n = 512) {
  Workload w;
  w.setup = [n](DataTarget& t) {
    t.SetScalar("n", n);
    std::vector<std::int64_t> sig, co;
    for (int i = 0; i < n; ++i) sig.push_back((i * 37) % 256 - 128);
    for (int i = 0; i < 16; ++i) co.push_back(8 + (i % 5));
    t.FillArray("sig", sig);
    t.FillArray("coeff", co);
  };
  return w;
}

PartitionResult RunDefault(const std::string& src, const Workload& w,
                           PartitionOptions opts = PartitionOptions{}) {
  const dsl::LoweredProgram p = dsl::Compile(src);
  Partitioner part(p.module, p.regions, std::move(opts));
  return part.Run(w);
}

TEST(Partitioner, SelectsTheHotLoop) {
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  ASSERT_TRUE(r.partitioned());
  ASSERT_EQ(r.selected.size(), 1u);
  // The selected cluster is the FIR loop (first loop in the program).
  const Cluster& c = r.chain.clusters[static_cast<std::size_t>(r.selected[0].cluster_id)];
  EXPECT_EQ(c.kind, ir::RegionKind::kLoop);
  EXPECT_GT(r.selected[0].core.utilization, 0.0);
}

TEST(Partitioner, SavesEnergy) {
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  const AppRow row = r.ToRow("fir");
  EXPECT_LT(row.saving_percent(), -10.0);
  EXPECT_LT(row.partitioned.total(), row.initial.total());
  // The ASIC core consumes something, the residual µP less than before.
  EXPECT_GT(row.partitioned.asic_core.joules, 0.0);
  EXPECT_LT(row.partitioned.up_core, row.initial.up_core);
}

TEST(Partitioner, PartitionedRunComputesTheSameResult) {
  // Eq. 3's premise: the partition changes *where* code runs, never
  // what it computes.
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  EXPECT_EQ(r.initial_run.return_value, r.partitioned_run.return_value);
}

TEST(Partitioner, RespectsUtilizationGate) {
  // Every feasible evaluation satisfied U_R > U_µP (Fig. 1 line 9).
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  for (const ClusterEvaluation& ev : r.evaluations) {
    if (ev.feasible) { EXPECT_GT(ev.u_asic, ev.u_up) << ev.cluster_label; }
  }
}

TEST(Partitioner, CellCapRejectsLargeCores) {
  PartitionOptions opts;
  opts.max_cells = 100.0;  // absurdly small: nothing fits
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload(), opts);
  EXPECT_FALSE(r.partitioned());
  for (const ClusterEvaluation& ev : r.evaluations) {
    EXPECT_FALSE(ev.feasible);
  }
}

TEST(Partitioner, HardwareWeightCanVeto) {
  // With a huge G weight in the objective function, additional hardware
  // is never worth it (the paper's F-balance rejecting trick's costly
  // clusters).
  PartitionOptions opts;
  opts.objective.g = 1000.0;
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload(), opts);
  EXPECT_FALSE(r.partitioned());
}

TEST(Partitioner, PreselectLimitsEvaluations) {
  PartitionOptions narrow;
  narrow.max_preselect = 1;
  const PartitionResult r1 = RunDefault(kHotCold, HotColdWorkload(), narrow);
  PartitionOptions wide;
  wide.max_preselect = 8;
  const PartitionResult r2 = RunDefault(kHotCold, HotColdWorkload(), wide);
  // Evaluations scale with the pre-selection width.
  EXPECT_LT(r1.evaluations.size(), r2.evaluations.size() + 1);
  std::set<int> c1, c2;
  for (const auto& ev : r1.evaluations) c1.insert(ev.cluster_id);
  for (const auto& ev : r2.evaluations) c2.insert(ev.cluster_id);
  EXPECT_EQ(c1.size(), 1u);
  EXPECT_GE(c2.size(), c1.size());
}

TEST(Partitioner, EvaluationsRecordBothOutcomes) {
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  bool any_feasible = false;
  for (const ClusterEvaluation& ev : r.evaluations) {
    if (ev.feasible) {
      any_feasible = true;
      EXPECT_GT(ev.objective, 0.0);
      EXPECT_GT(ev.geq, 0.0);
      EXPECT_GT(ev.asic_cycles, 0u);
    } else {
      EXPECT_FALSE(ev.reject_reason.empty());
    }
  }
  EXPECT_TRUE(any_feasible);
}

TEST(Partitioner, CacheAdaptationChangesPartitionedEnergy) {
  // Footnote 4: the partitioned system may adapt its caches. A smaller
  // i-cache for the shrunken residual code changes the i-cache energy.
  PartitionOptions adapted;
  adapted.partitioned_config = iss::SystemConfig{};
  adapted.partitioned_config->icache.capacity_bytes = 512;
  const PartitionResult ra = RunDefault(kHotCold, HotColdWorkload(), adapted);
  const PartitionResult rb = RunDefault(kHotCold, HotColdWorkload());
  ASSERT_TRUE(ra.partitioned());
  ASSERT_TRUE(rb.partitioned());
  EXPECT_NE(ra.partitioned_run.energy.icache.joules,
            rb.partitioned_run.energy.icache.joules);
}

TEST(Partitioner, TransfersAppearInThePartitionedRun) {
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  ASSERT_TRUE(r.partitioned());
  if (r.selected[0].transfers.total_words() > 0) {
    EXPECT_GT(r.partitioned_run.transfer_words_in +
                  r.partitioned_run.transfer_words_out,
              0u);
  }
}

TEST(Partitioner, NoCandidatesMeansNoPartition) {
  // Straight-line program: no loops, no if-else, nothing to map.
  const PartitionResult r =
      RunDefault("var a; func main() { return a * 3 + 1; }", Workload{});
  EXPECT_FALSE(r.partitioned());
  const AppRow row = r.ToRow("straight");
  EXPECT_DOUBLE_EQ(row.saving_percent(), 0.0);
  EXPECT_EQ(row.cluster, "(none)");
}

TEST(Partitioner, MultiClusterGreedySelection) {
  // Two hot independent loops; allow two HW clusters.
  const char* two_hot = R"(
    var n;
    array a1[512]; array b1[512];
    var s1; var s2;
    func main() {
      var i;
      for (i = 0; i < n; i = i + 1) { s1 = s1 + a1[i] * 3 + (a1[i] >> 2); }
      for (i = 0; i < n; i = i + 1) { s2 = s2 + b1[i] * 5 - (b1[i] >> 1); }
      return s1 + s2;
    })";
  Workload w;
  w.setup = [](DataTarget& t) {
    t.SetScalar("n", 512);
    std::vector<std::int64_t> v;
    for (int i = 0; i < 512; ++i) v.push_back(i % 97);
    t.FillArray("a1", v);
    t.FillArray("b1", v);
  };
  PartitionOptions opts;
  opts.max_hw_clusters = 2;
  const PartitionResult r = RunDefault(two_hot, w, opts);
  ASSERT_TRUE(r.partitioned());
  EXPECT_EQ(r.selected.size(), 2u);
  EXPECT_EQ(r.initial_run.return_value, r.partitioned_run.return_value);
  const AppRow row = r.ToRow("two-hot");
  EXPECT_LT(row.saving_percent(), -20.0);
}


// Two adjacent profitable stages: with both on the ASIC core, the
// `filt` words stage 1 writes for stage 2 never cross the shared
// memory (Fig. 3 synergy terms).
const char* kPipeline = R"(
  var n;
  array raw[2048];
  array filt[2048];
  array grad[2048];
  var edges;
  func main() {
    var i;
    for (i = 1; i < n - 1; i = i + 1) {
      filt[i] = (raw[i - 1] + raw[i] * 2 + raw[i + 1]) >> 2;
    }
    for (i = 1; i < n - 1; i = i + 1) {
      grad[i] = abs(filt[i + 1] - filt[i - 1]) * 3;
    }
    edges = 0;
    for (i = 1; i < n - 1; i = i + 1) {
      if (grad[i] > 96) { edges = edges + 1; }
    }
    return edges;
  })";

Workload PipelineWorkload() {
  Workload w;
  w.setup = [](DataTarget& t) {
    t.SetScalar("n", 2048);
    std::vector<std::int64_t> raw;
    for (int i = 0; i < 2048; ++i) raw.push_back((i * 7919) % 251);
    t.FillArray("raw", raw);
  };
  return w;
}

TEST(Partitioner, FailedSynthesisLeavesTheSurvivorPayingItsOwnTransfers) {
  // One of the two winners fails synthesis and stays in software, so
  // the survivor no longer shares data with it on the ASIC: its
  // transfers are priced as if it were mapped alone.
  const dsl::LoweredProgram p = dsl::Compile(kPipeline);
  PartitionOptions opts;
  opts.max_hw_clusters = 2;
  for (const char* spec : {"synth:1", "synth:2"}) {
    SCOPED_TRACE(spec);
    PartitionResult r;
    {
      fault::ScopedSpec fault(spec);
      r = Partitioner(p.module, p.regions, opts).Run(PipelineWorkload());
    }
    EXPECT_TRUE(r.degraded());
    ASSERT_EQ(r.selected.size(), 1u);
    const PartitionDecision& d = r.selected[0];
    const BusTrafficAnalyzer traffic(p.module, r.chain, power::TechLibrary::Cmos6(),
                                     opts.initial_config.memory_bytes);
    const Transfers alone =
        traffic.Compute(r.chain.clusters[static_cast<std::size_t>(d.cluster_id)],
                        {d.cluster_id});
    EXPECT_EQ(d.transfers.up_to_mem_words, alone.up_to_mem_words);
    EXPECT_EQ(d.transfers.asic_to_mem_words, alone.asic_to_mem_words);
    EXPECT_EQ(d.transfers.energy.joules, alone.energy.joules);
    // The survivor's share of the `filt` hand-over reaches the
    // partitioned run: stage 2 loads it on entry, stage 1 stores it on
    // exit.
    if (std::string(spec) == "synth:1") {
      EXPECT_EQ(d.transfers.up_to_mem_words, 2049u);
      EXPECT_EQ(r.partitioned_run.transfer_words_in, 2049u);
    } else {
      EXPECT_EQ(d.transfers.asic_to_mem_words, 2049u);
      EXPECT_EQ(r.partitioned_run.transfer_words_out, 2049u);
    }
  }
}

TEST(Partitioner, InterconnectSynthesizesTheEvaluatedSchedules) {
  const dsl::LoweredProgram p = dsl::Compile(kHotCold);
  PartitionOptions opts;
  opts.include_interconnect = true;
  const PartitionResult r = Partitioner(p.module, p.regions, opts).Run(HotColdWorkload());
  const PartitionResult plain = RunDefault(kHotCold, HotColdWorkload());
  EXPECT_FALSE(r.degraded());
  ASSERT_TRUE(r.partitioned());
  ASSERT_EQ(r.selected.size(), plain.selected.size());
  EXPECT_FALSE(plain.selected[0].datapath.has_value());

  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  for (std::size_t k = 0; k < r.selected.size(); ++k) {
    const PartitionDecision& d = r.selected[k];
    SCOPED_TRACE(d.cluster_label);
    ASSERT_TRUE(d.datapath.has_value());
    // The steering network costs area on top of the plain core.
    EXPECT_EQ(plain.selected[k].cluster_id, d.cluster_id);
    EXPECT_GT(d.core.cells, plain.selected[k].core.cells);

    // Rebuild the datapath from scratch and compare its structure.
    const Cluster& c = r.chain.clusters[static_cast<std::size_t>(d.cluster_id)];
    const auto rs = std::find_if(
        opts.resource_sets.begin(), opts.resource_sets.end(),
        [&](const sched::ResourceSet& s) { return s.name == d.core.resource_set; });
    ASSERT_NE(rs, opts.resource_sets.end());
    std::vector<sched::BlockDfg> dfgs;
    std::vector<sched::BlockSchedule> schedules;
    dfgs.reserve(c.blocks.size());
    schedules.reserve(c.blocks.size());
    std::vector<asic::ScheduledBlock> blocks;
    for (const auto& [fn, b] : c.blocks) {
      dfgs.push_back(sched::BuildBlockDfg(p.module.function(fn).block(b)));
      schedules.push_back(sched::ListSchedule(dfgs.back(), *rs, lib, opts.scheduler));
      blocks.push_back(asic::ScheduledBlock{&dfgs.back(), &schedules.back(), 1});
    }
    const asic::Datapath want =
        asic::BuildDatapath(blocks, asic::ComputeUtilization(blocks, *rs, lib));
    const asic::Datapath& got = *d.datapath;
    EXPECT_EQ(got.fsm_states, want.fsm_states);
    EXPECT_EQ(got.total_mux_legs, want.total_mux_legs);
    EXPECT_EQ(got.mux_geq, want.mux_geq);
    ASSERT_EQ(got.units.size(), want.units.size());
    for (std::size_t u = 0; u < want.units.size(); ++u) {
      EXPECT_EQ(got.units[u].type, want.units[u].type);
      EXPECT_EQ(got.units[u].instance, want.units[u].instance);
      EXPECT_EQ(got.units[u].producers, want.units[u].producers);
    }

    DiagnosticSink sink;
    EXPECT_TRUE(asic::ValidateVerilog(asic::EmitVerilog(d.core, got), got, sink));
    EXPECT_FALSE(sink.has_errors());
  }
}

TEST(Partitioner, PerformanceStrategySkipsUtilizationGate) {
  PartitionOptions opts;
  opts.strategy = Strategy::kPerformance;
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload(), opts);
  ASSERT_TRUE(r.partitioned());
  // Same functional behaviour either way.
  EXPECT_EQ(r.initial_run.return_value, r.partitioned_run.return_value);
  const AppRow row = r.ToRow("fir");
  EXPECT_LT(row.time_change_percent(), 0.0);
}

TEST(Partitioner, PerformanceStrategyRefusesSlowerHardware) {
  // A division recurrence: the ASIC's 32-cycle sequential divider makes
  // hardware slower. The performance baseline must decline; the
  // low-power strategy accepts (it is an energy win).
  const char* divy = R"(
    var n; var x; var acc;
    func main() {
      var i;
      for (i = 0; i < n; i = i + 1) {
        x = x + (4096 - x) / 17;
        x = x - x / 9;
        acc = acc + x / 7;
      }
      return acc;
    })";
  Workload w;
  w.setup = [](DataTarget& t) {
    t.SetScalar("n", 4000);
    t.SetScalar("x", 100);
  };
  PartitionOptions perf;
  perf.strategy = Strategy::kPerformance;
  const PartitionResult rp = RunDefault(divy, w, perf);
  EXPECT_FALSE(rp.partitioned());

  const PartitionResult rl = RunDefault(divy, w);
  ASSERT_TRUE(rl.partitioned());
  const AppRow row = rl.ToRow("divy");
  EXPECT_LT(row.saving_percent(), -50.0);
  EXPECT_GT(row.time_change_percent(), 0.0);
}

TEST(Partitioner, ChainingReducesAsicControlSteps) {
  // Chaining packs dependent single-cycle ops into shared steps: for
  // every (cluster, resource set) pairing that schedules, the chained
  // schedule needs at most as many ASIC control steps. Note it may
  // *lower* U_R (chained ops occupy separate functional units), so
  // feasibility can legitimately change — compare per evaluation, not
  // the final selection.
  PartitionOptions chained;
  chained.scheduler.enable_chaining = true;
  const PartitionResult rc = RunDefault(kHotCold, HotColdWorkload(), chained);
  const PartitionResult rp = RunDefault(kHotCold, HotColdWorkload());
  int compared = 0;
  for (const ClusterEvaluation& ec : rc.evaluations) {
    for (const ClusterEvaluation& ep : rp.evaluations) {
      if (ec.cluster_id == ep.cluster_id && ec.resource_set == ep.resource_set &&
          ec.asic_cycles > 0 && ep.asic_cycles > 0) {
        EXPECT_LE(ec.asic_cycles, ep.asic_cycles)
            << ec.cluster_label << " / " << ec.resource_set;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
  // Functional behaviour is unchanged regardless of selection.
  EXPECT_EQ(rc.initial_run.return_value, rp.initial_run.return_value);
}

TEST(Report, CsvExportHasHeaderAndRows) {
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  const std::string csv = ToCsv({r.ToRow("fir")});
  EXPECT_NE(csv.find("app,icache_i"), std::string::npos);
  EXPECT_NE(csv.find("fir,"), std::string::npos);
  // Two lines: header + one row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}


TEST(Hotspots, SharesSumAndOrder) {
  const PartitionResult r = RunDefault(kHotCold, HotColdWorkload());
  const auto hs = ComputeHotspots(r.chain, r.initial_run);
  ASSERT_FALSE(hs.empty());
  // Sorted by energy descending; shares within [0,1]; totals match the
  // initial run (every block belongs to exactly one chain member, and
  // shadow function clusters are absent here).
  double cycle_total = 0.0;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    if (i) {
      EXPECT_LE(hs[i].energy.joules, hs[i - 1].energy.joules);
    }
    EXPECT_GE(hs[i].cycle_share, 0.0);
    EXPECT_LE(hs[i].cycle_share, 1.0);
    if (hs[i].cluster_id < r.chain.chain_length) cycle_total += hs[i].cycle_share;
  }
  EXPECT_NEAR(cycle_total, 1.0, 1e-9);
  // The FIR loop dominates.
  EXPECT_GT(hs.front().energy_share, 0.5);
  EXPECT_TRUE(hs.front().hw_candidate);
  // Render mentions the top cluster.
  const std::string text = RenderHotspots(hs);
  EXPECT_NE(text.find(hs.front().label), std::string::npos);
}

// --- a shared baseline (Run(const AppBaseline&)) equals the cold flow --

// Field-by-field equality; doubles must match exactly.
void ExpectSameEnergy(Energy a, Energy b, const char* what) {
  EXPECT_EQ(a.joules, b.joules) << what;
}

void ExpectSameCacheStats(const cache::CacheStats& a, const cache::CacheStats& b) {
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.write_hits, b.write_hits);
  EXPECT_EQ(a.write_misses, b.write_misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.line_fills, b.line_fills);
}

void ExpectSameSim(const iss::SimResult& a, const iss::SimResult& b) {
  EXPECT_EQ(a.return_value, b.return_value);
  EXPECT_EQ(a.instr_count, b.instr_count);
  EXPECT_EQ(a.up_cycles, b.up_cycles);
  ExpectSameEnergy(a.energy.up_core, b.energy.up_core, "up_core");
  ExpectSameEnergy(a.energy.icache, b.energy.icache, "icache");
  ExpectSameEnergy(a.energy.dcache, b.energy.dcache, "dcache");
  ExpectSameEnergy(a.energy.mem, b.energy.mem, "mem");
  ExpectSameEnergy(a.energy.bus, b.energy.bus, "bus");
  ExpectSameEnergy(a.energy.asic_core, b.energy.asic_core, "asic_core");
  ExpectSameCacheStats(a.icache_stats, b.icache_stats);
  ExpectSameCacheStats(a.dcache_stats, b.dcache_stats);
  EXPECT_EQ(a.active_cycles, b.active_cycles);
  EXPECT_EQ(a.up_utilization, b.up_utilization);
  ASSERT_EQ(a.block_costs.size(), b.block_costs.size());
  for (std::size_t f = 0; f < a.block_costs.size(); ++f) {
    ASSERT_EQ(a.block_costs[f].size(), b.block_costs[f].size());
    for (std::size_t k = 0; k < a.block_costs[f].size(); ++k) {
      const iss::BlockCost& x = a.block_costs[f][k];
      const iss::BlockCost& y = b.block_costs[f][k];
      EXPECT_EQ(x.cycles, y.cycles);
      ExpectSameEnergy(x.energy, y.energy, "block energy");
      EXPECT_EQ(x.instrs, y.instrs);
      EXPECT_EQ(x.active_cycles, y.active_cycles);
    }
  }
  EXPECT_EQ(a.cluster_entries, b.cluster_entries);
  EXPECT_EQ(a.transfer_words_in, b.transfer_words_in);
  EXPECT_EQ(a.transfer_words_out, b.transfer_words_out);
  EXPECT_EQ(a.mem_reads, b.mem_reads);
  EXPECT_EQ(a.mem_writes, b.mem_writes);
}

void ExpectSameBreakdown(const iss::CoreEnergies& a, const iss::CoreEnergies& b) {
  ExpectSameEnergy(a.icache, b.icache, "row icache");
  ExpectSameEnergy(a.dcache, b.dcache, "row dcache");
  ExpectSameEnergy(a.mem, b.mem, "row mem");
  ExpectSameEnergy(a.bus, b.bus, "row bus");
  ExpectSameEnergy(a.up_core, b.up_core, "row up_core");
  ExpectSameEnergy(a.asic_core, b.asic_core, "row asic_core");
}

void ExpectSameUtilization(const asic::UtilizationResult& a, const asic::UtilizationResult& b) {
  EXPECT_EQ(a.u_core, b.u_core);
  EXPECT_EQ(a.geq, b.geq);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.instances, b.instances);
  ASSERT_EQ(a.instance_util.size(), b.instance_util.size());
  for (std::size_t i = 0; i < a.instance_util.size(); ++i) {
    EXPECT_EQ(a.instance_util[i].type, b.instance_util[i].type);
    EXPECT_EQ(a.instance_util[i].instance, b.instance_util[i].instance);
    EXPECT_EQ(a.instance_util[i].active_cycles, b.instance_util[i].active_cycles);
    EXPECT_EQ(a.instance_util[i].ops, b.instance_util[i].ops);
  }
  EXPECT_EQ(a.bindings.size(), b.bindings.size());
}

void ExpectSameTransfers(const Transfers& a, const Transfers& b) {
  EXPECT_EQ(a.up_to_mem_words, b.up_to_mem_words);
  EXPECT_EQ(a.asic_to_mem_words, b.asic_to_mem_words);
  ExpectSameEnergy(a.energy, b.energy, "transfer energy");
}

void ExpectSameResult(const PartitionResult& a, const PartitionResult& b) {
  const AppRow ra = a.ToRow("app");
  const AppRow rb = b.ToRow("app");
  ExpectSameBreakdown(ra.initial, rb.initial);
  ExpectSameBreakdown(ra.partitioned, rb.partitioned);
  EXPECT_EQ(ra.initial_time.up_cycles, rb.initial_time.up_cycles);
  EXPECT_EQ(ra.initial_time.asic_cycles, rb.initial_time.asic_cycles);
  EXPECT_EQ(ra.partitioned_time.up_cycles, rb.partitioned_time.up_cycles);
  EXPECT_EQ(ra.partitioned_time.asic_cycles, rb.partitioned_time.asic_cycles);
  EXPECT_EQ(ra.asic_cells, rb.asic_cells);
  EXPECT_EQ(ra.asic_utilization, rb.asic_utilization);
  EXPECT_EQ(ra.resource_set, rb.resource_set);
  EXPECT_EQ(ra.cluster, rb.cluster);

  ASSERT_EQ(a.evaluations.size(), b.evaluations.size());
  for (std::size_t i = 0; i < a.evaluations.size(); ++i) {
    const ClusterEvaluation& x = a.evaluations[i];
    const ClusterEvaluation& y = b.evaluations[i];
    SCOPED_TRACE("evaluation " + std::to_string(i));
    EXPECT_EQ(x.cluster_id, y.cluster_id);
    EXPECT_EQ(x.cluster_label, y.cluster_label);
    EXPECT_EQ(x.resource_set, y.resource_set);
    EXPECT_EQ(x.u_asic, y.u_asic);
    EXPECT_EQ(x.u_up, y.u_up);
    EXPECT_EQ(x.geq, y.geq);
    EXPECT_EQ(x.asic_cycles, y.asic_cycles);
    EXPECT_EQ(x.sw_cycles, y.sw_cycles);
    ExpectSameEnergy(x.e_asic_estimate, y.e_asic_estimate, "e_asic_estimate");
    ExpectSameEnergy(x.e_up_residual, y.e_up_residual, "e_up_residual");
    ExpectSameEnergy(x.e_rest, y.e_rest, "e_rest");
    ExpectSameEnergy(x.e_trans, y.e_trans, "e_trans");
    EXPECT_EQ(x.objective, y.objective);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.reject_reason, y.reject_reason);
    ExpectSameUtilization(x.util, y.util);
    ExpectSameTransfers(x.transfers, y.transfers);
  }

  ASSERT_EQ(a.selected.size(), b.selected.size());
  for (std::size_t i = 0; i < a.selected.size(); ++i) {
    const PartitionDecision& x = a.selected[i];
    const PartitionDecision& y = b.selected[i];
    SCOPED_TRACE("selected " + std::to_string(i));
    EXPECT_EQ(x.cluster_id, y.cluster_id);
    EXPECT_EQ(x.cluster_label, y.cluster_label);
    EXPECT_EQ(x.core.name, y.core.name);
    EXPECT_EQ(x.core.resource_set, y.core.resource_set);
    EXPECT_EQ(x.core.utilization, y.core.utilization);
    EXPECT_EQ(x.core.geq, y.core.geq);
    EXPECT_EQ(x.core.cells, y.core.cells);
    EXPECT_EQ(x.core.clock_period.seconds, y.core.clock_period.seconds);
    EXPECT_EQ(x.core.control_steps, y.core.control_steps);
    EXPECT_EQ(x.core.cycles, y.core.cycles);
    ExpectSameEnergy(x.core.estimate_energy, y.core.estimate_energy, "estimate_energy");
    ExpectSameEnergy(x.core.refined_energy, y.core.refined_energy, "refined_energy");
    EXPECT_EQ(x.core.instances, y.core.instances);
    EXPECT_EQ(x.datapath.has_value(), y.datapath.has_value());
    ExpectSameTransfers(x.transfers, y.transfers);
  }
  EXPECT_EQ(a.asic_cycles, b.asic_cycles);
  ExpectSameEnergy(a.asic_energy, b.asic_energy, "asic_energy");

  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].severity, b.diagnostics[i].severity);
    EXPECT_EQ(a.diagnostics[i].code, b.diagnostics[i].code);
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
  }
  EXPECT_EQ(a.chain.clusters.size(), b.chain.clusters.size());
  EXPECT_EQ(a.chain.chain_length, b.chain.chain_length);

  {
    SCOPED_TRACE("initial_run");
    ExpectSameSim(a.initial_run, b.initial_run);
  }
  {
    SCOPED_TRACE("partitioned_run");
    ExpectSameSim(a.partitioned_run, b.partitioned_run);
  }
}

// Runs `base`'s flow once per resource set, cold and on one baseline
// shared by every set, in forward and then reverse set order.
void ExpectSharedBaselineMatchesCold(const dsl::LoweredProgram& p, const PartitionOptions& base,
                                     const Workload& w) {
  std::vector<PartitionResult> cold;
  for (const sched::ResourceSet& rs : base.resource_sets) {
    PartitionOptions o = base;
    o.resource_sets = {rs};
    cold.push_back(Partitioner(p.module, p.regions, o).Run(w));
  }
  for (const bool reverse : {false, true}) {
    std::shared_ptr<const AppBaseline> shared;
    for (std::size_t n = 0; n < base.resource_sets.size(); ++n) {
      const std::size_t k = reverse ? base.resource_sets.size() - 1 - n : n;
      SCOPED_TRACE(std::string(reverse ? "reverse, " : "forward, ") + "set " +
                   base.resource_sets[k].name);
      PartitionOptions o = base;
      o.resource_sets = {base.resource_sets[k]};
      const Partitioner part(p.module, p.regions, o);
      if (shared == nullptr) shared = part.BuildBaseline(w);
      ExpectSameResult(cold[k], part.Run(*shared));
    }
  }
}

TEST(SharedBaseline, EqualsTheColdFlowForEveryAppAndResourceSet) {
  for (const apps::Application& app : apps::AllApplications()) {
    SCOPED_TRACE(app.name);
    const dsl::LoweredProgram p = dsl::Compile(app.dsl_source);
    ExpectSharedBaselineMatchesCold(p, app.options, app.workload(1));
  }
}

TEST(SharedBaseline, EqualsTheColdFlowOnGeneratedPrograms) {
  for (int seed = 0; seed < 12; ++seed) {
    Prng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull + 3);
    const std::string src = GenerateProgram(rng);
    SCOPED_TRACE(src);
    const dsl::LoweredProgram p = dsl::Compile(src);
    const Workload w = GeneratedWorkload(rng.next_in(-100, 100));
    PartitionOptions opts;
    opts.max_hw_clusters = 1 + static_cast<int>(rng.next_below(2));
    opts.scheduler.enable_chaining = rng.next_below(2) == 1;
    opts.use_synergy = rng.next_below(2) == 1;
    opts.peephole = rng.next_below(2) == 1;
    opts.include_interconnect = rng.next_below(2) == 1;
    if (rng.next_below(3) == 0) opts.strategy = Strategy::kPerformance;
    ExpectSharedBaselineMatchesCold(p, opts, w);
  }
}

// Fault-site hits of one Run on this thread: profile, sim, alloc.
std::vector<std::uint64_t> SiteHits(const std::function<void()>& run) {
  const fault::JobScope count("");
  run();
  return {fault::HitCount("profile"), fault::HitCount("sim"), fault::HitCount("alloc")};
}

TEST(SharedBaseline, EveryRunHitsEachAppStageSiteOnce) {
  const dsl::LoweredProgram p = dsl::Compile(kHotCold);
  const Workload w = HotColdWorkload();
  const Partitioner part(p.module, p.regions);
  const std::shared_ptr<const AppBaseline> shared = part.BuildBaseline(w);
  const std::vector<std::uint64_t> want = {1, 2, 1};  // + the line-15 sim
  EXPECT_EQ(SiteHits([&] { (void)part.Run(w); }), want) << "cold";
  EXPECT_EQ(SiteHits([&] { (void)part.Run(*shared); }), want) << "first shared run";
  EXPECT_EQ(SiteHits([&] { (void)part.Run(*shared); }), want) << "memoized line 15";
  EXPECT_EQ(SiteHits([&] { (void)part.BuildBaseline(w); }),
            (std::vector<std::uint64_t>{0, 0, 0}))
      << "the app stage runs masked";
}

TEST(SharedBaseline, AppStageFaultsKeepTheirColdEffect) {
  const dsl::LoweredProgram p = dsl::Compile(kHotCold);
  const Workload w = HotColdWorkload();
  const Partitioner part(p.module, p.regions);
  const std::shared_ptr<const AppBaseline> shared = part.BuildBaseline(w);
  for (const char* spec : {"profile:1", "sim:1"}) {
    const fault::JobScope scope(spec);
    EXPECT_THROW((void)part.Run(*shared), InjectedFault) << spec;
  }
  for (const char* spec : {"alloc:1", "sim:2"}) {
    SCOPED_TRACE(spec);
    PartitionResult cold, hot;
    {
      const fault::JobScope scope(spec);
      cold = part.Run(w);
    }
    {
      const fault::JobScope scope(spec);
      hot = part.Run(*shared);
    }
    EXPECT_FALSE(hot.partitioned());
    EXPECT_TRUE(hot.degraded());
    ExpectSameResult(cold, hot);
  }
  // A real app-stage failure is no fault: a starved initial run throws
  // from the build itself, with the cold run's permanent error.
  PartitionOptions starved;
  starved.max_sim_instrs = 10;
  const Partitioner failing(p.module, p.regions, starved);
  std::string cold_error;
  try {
    (void)failing.Run(w);
    ADD_FAILURE() << "the cold run should throw";
  } catch (const Error& e) {
    cold_error = e.what();
  }
  try {
    (void)failing.BuildBaseline(w);
    ADD_FAILURE() << "the build should throw";
  } catch (const Error& e) {
    EXPECT_EQ(dynamic_cast<const InjectedFault*>(&e), nullptr);
    EXPECT_EQ(std::string(e.what()), cold_error);
  }
}

TEST(SharedBaseline, HoldsThePreselectedBlockDfgsThatRunSchedules) {
  const dsl::LoweredProgram p = dsl::Compile(kHotCold);
  const Workload w = HotColdWorkload();
  const Partitioner part(p.module, p.regions);
  const std::shared_ptr<AppBaseline> b = part.BuildBaseline(w);
  ASSERT_FALSE(b->ranked.empty());
  for (const PreselectedCluster& r : b->ranked) {
    SCOPED_TRACE(r.cluster->label);
    ASSERT_EQ(r.dfgs.size(), r.cluster->blocks.size());
    for (std::size_t i = 0; i < r.dfgs.size(); ++i) {
      const auto [fn, block] = r.cluster->blocks[i];
      const sched::BlockDfg fresh = sched::BuildBlockDfg(p.module.function(fn).block(block));
      ASSERT_EQ(r.dfgs[i].size(), fresh.size());
      for (std::size_t n = 0; n < fresh.size(); ++n) {
        EXPECT_EQ(r.dfgs[i].nodes[n].instr_index, fresh.nodes[n].instr_index);
        EXPECT_EQ(r.dfgs[i].nodes[n].preds, fresh.nodes[n].preds);
        EXPECT_EQ(r.dfgs[i].nodes[n].succs, fresh.nodes[n].succs);
        EXPECT_EQ(r.dfgs[i].nodes[n].depth, fresh.nodes[n].depth);
      }
    }
  }
  // Resource instances bound over all evaluations.
  auto instances = [](const PartitionResult& r) {
    std::size_t total = 0;
    for (const ClusterEvaluation& ev : r.evaluations) total += ev.util.instance_util.size();
    return total;
  };
  EXPECT_GT(instances(part.Run(*b)), 0u);
  // Emptied DFGs leave no op to bind: Run reads the baseline's graphs
  // and builds none of its own.
  for (PreselectedCluster& r : b->ranked) {
    for (sched::BlockDfg& g : r.dfgs) g = sched::BlockDfg{};
  }
  const PartitionResult emptied = part.Run(*b);
  EXPECT_FALSE(emptied.evaluations.empty());
  EXPECT_EQ(instances(emptied), 0u);
}

TEST(SharedBaseline, AFailedReSimulationIsNotMemoized) {
  const dsl::LoweredProgram p = dsl::Compile(kHotCold);
  const Workload w = HotColdWorkload();
  const Partitioner part(p.module, p.regions);
  const std::shared_ptr<const AppBaseline> shared = part.BuildBaseline(w);
  {
    const fault::JobScope scope("sim:2");
    const PartitionResult failed = part.Run(*shared);
    ASSERT_EQ(failed.diagnostics.back().code, "partition.resim");
  }
  EXPECT_EQ(shared->resims.runs(), 0);
  const PartitionResult next = part.Run(*shared);
  EXPECT_EQ(shared->resims.runs(), 1);
  EXPECT_EQ(shared->resims.reused(), 0);
  ExpectSameResult(part.Run(w), next);
  (void)part.Run(*shared);
  EXPECT_EQ(shared->resims.runs(), 1);
  EXPECT_EQ(shared->resims.reused(), 1);
}

// A deadline inside the list scheduler aborts the whole run: no
// isolation layer (candidate stage, per-candidate evaluation) may fold
// it into an infeasible or failed candidate. Run's own token is null,
// so only the scheduler's polls can fire.
TEST(Cancellation, AFiredTokenInTheSchedulerAbortsTheRun) {
  const dsl::LoweredProgram p = dsl::Compile(kHotCold);
  CancelToken fired;
  fired.Cancel();
  PartitionOptions opts;
  opts.scheduler.cancel = &fired;
  const Partitioner part(p.module, p.regions, opts);
  const std::shared_ptr<const AppBaseline> b = part.BuildBaseline(HotColdWorkload());
  ASSERT_FALSE(b->ranked.empty());
  EXPECT_THROW((void)part.Run(*b), CancelledError);

  const PreselectedCluster& first = b->ranked.front();
  ScheduledCandidate sc;
  EXPECT_THROW(sc = ScheduleCandidate(*first.cluster, first.dfgs, &b->initial_run,
                                      opts.resource_sets.front(), power::TechLibrary::Cmos6(),
                                      opts.scheduler, nullptr, "cluster"),
               CancelledError);
  EXPECT_EQ(sc.infeasible, "");
}

TEST(Partitioner, ObjectiveFunctionHelpers) {
  ObjectiveParams p;
  p.f = 2.0;
  p.g = 0.5;
  EXPECT_DOUBLE_EQ(BaselineObjective(p), 2.0);
  EXPECT_DOUBLE_EQ(
      Objective(Energy{0.5}, Energy{1.0}, kGeqNorm / 2, p),
      2.0 * 0.5 + 0.5 * 0.5);
  // Zero reference energy does not divide by zero.
  EXPECT_NO_THROW(Objective(Energy{1.0}, Energy{0.0}, 0.0, p));
}

}  // namespace
}  // namespace lopass::core
