#include "core/partitioner.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "asic/netlist_check.h"
#include "asic/verilog.h"
#include "common/fault.h"
#include "core/hotspots.h"
#include "dsl/lower.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"

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
        asic::BuildDatapath(blocks, asic::ComputeUtilization(blocks, *rs, lib), lib);
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
    EXPECT_TRUE(asic::ValidateVerilog(asic::EmitVerilog(d.core, got), got, 32, sink));
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
    if (i) EXPECT_LE(hs[i].energy.joules, hs[i - 1].energy.joules);
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

TEST(Partitioner, ObjectiveFunctionHelpers) {
  ObjectiveParams p;
  p.f = 2.0;
  p.g = 0.5;
  p.geq_norm = 1000.0;
  EXPECT_DOUBLE_EQ(BaselineObjective(p), 2.0);
  EXPECT_DOUBLE_EQ(
      Objective(Energy{0.5}, Energy{1.0}, 500.0, p),
      2.0 * 0.5 + 0.5 * 0.5);
  // Zero reference energy does not divide by zero.
  EXPECT_NO_THROW(Objective(Energy{1.0}, Energy{0.0}, 0.0, p));
}

}  // namespace
}  // namespace lopass::core
