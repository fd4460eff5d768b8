#pragma once

// The low-power hardware/software partitioner — the driver implementing
// Fig. 1 (the partition process) and Fig. 5 (the design flow).
//
// Pipeline:
//   1. build graph / code generation            (Fig. 1 line 1)
//   2. decompose into clusters                  (line 2)
//   3. bus-transfer energy per cluster          (lines 3-4, Fig. 3)
//   4. pre-select N_max clusters                (line 5)
//   5. per cluster × designer resource set:
//        list schedule                          (line 8)
//        utilization rate U_R^core, GEQ_RS      (line 9, Fig. 4)
//        energy estimates + objective function  (lines 10-13)
//   6. synthesize the best core(s)              (line 14)
//   7. gate-level-style energy estimation and
//      whole-system partitioned re-simulation   (line 15)
//
// Steps 1-4, with the initial whole-system run that also profiles
// #ex_times, read the application only: Partitioner::BuildBaseline runs
// them once into an AppBaseline that every resource-set run of the
// application can share.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asic/synthesis.h"
#include "asic/utilization.h"
#include "common/cancel.h"
#include "common/diag.h"
#include "core/cluster.h"
#include "core/dataflow.h"
#include "core/objective.h"
#include "core/report.h"
#include "core/workload.h"
#include "dsl/lower.h"
#include "iss/accounting.h"
#include "iss/simulator.h"
#include "sched/dfg.h"
#include "sched/resource_set.h"

namespace lopass::core {

// What the partitioner optimizes for.
//
// kLowPower is the paper's approach (utilization-gated, energy-driven
// objective). kPerformance is the classic baseline the related work
// ([4]-[9]) pursues: move the cluster that buys the most execution
// time, ignoring energy and the utilization test. Comparing both on
// the same applications shows what the paper's energy-first objective
// changes (bench_baseline_comparison).
enum class Strategy { kLowPower, kPerformance };

struct PartitionOptions {
  // The flow decomposes and runs Workload::entry; only flowbench's
  // stage-by-stage replay reads this. It goes with that replay, as
  // max_interp_steps does.
  std::string entry = "main";
  Strategy strategy = Strategy::kLowPower;
  // N_max^c: number of clusters surviving pre-selection (Fig. 1 line 5).
  int max_preselect = 8;
  // How many clusters may be mapped to the ASIC core (greedy).
  int max_hw_clusters = 1;
  ObjectiveParams objective;
  // Hard cap on additional hardware, in cells (0 disables the cap; the
  // OF's hardware term applies regardless).
  double max_cells = 0.0;
  // Designer resource sets ("3 to 5 sets are given", §3.2).
  std::vector<sched::ResourceSet> resource_sets = sched::DefaultDesignerSets();
  // List-scheduler refinements (operator chaining etc.).
  sched::SchedulerOptions scheduler;
  // Run the SL32 peephole optimizer on the generated program (affects
  // the software side of every comparison; see bench_ablation_compiler).
  bool peephole = false;
  iss::SystemConfig initial_config;
  // Adapted standard cores for the partitioned system (footnote 4);
  // defaults to initial_config.
  std::optional<iss::SystemConfig> partitioned_config;
  // Ablations.
  bool use_synergy = true;            // Fig. 3 steps 2/4
  bool weighted_utilization = false;  // weight u_rs by resource size (§3.4)
  // Fold the steering-network (mux) area/energy into synthesized cores
  // (a cost Fig. 4's GEQ omits; see bench_ablation_mux).
  bool include_interconnect = false;
  // Fuel for interp::Interpreter. The flow never runs the interpreter;
  // only flowbench's stage-by-stage replay reads this. It goes, and
  // src/interp moves to a test-only target, with the change that
  // retires that replay.
  std::uint64_t max_interp_steps = 500'000'000;
  // Guard rail: fuel for the cycle simulator. Hitting the limit aborts
  // the flow with a clear error instead of hanging on a non-terminating
  // workload.
  std::uint64_t max_sim_instrs = 2'000'000'000;
  // Run the static validators (L3xx partition invariants, L4xx schedule
  // checks, L5xx datapath and Verilog checks under include_interconnect)
  // on every intermediate artifact. Cheap next to simulation; findings
  // land in PartitionResult::diagnostics as errors (-> degraded()), and
  // a schedule that fails validation rejects its candidate.
  bool self_check = true;
  // Cooperative cancellation / per-job deadline (see common/cancel.h).
  // Polled between stages, before every candidate evaluation, and
  // inside the list scheduler. A fired token aborts Run() with
  // CancelledError, which is not an Error, so no per-cluster isolation
  // layer absorbs it: a deadline hit mid-candidate would otherwise
  // cancel every remaining candidate one diagnostic at a time.
  // Null = not cancellable.
  const CancelToken* cancel = nullptr;
};

// Outcome of evaluating one (cluster, resource set) pair.
struct ClusterEvaluation {
  int cluster_id = -1;
  std::string cluster_label;
  std::string resource_set;
  double u_asic = 0.0;   // U_R^core
  double u_up = 0.0;     // U_µP^core over the cluster's blocks
  double geq = 0.0;      // incl. controller
  lopass::Cycles asic_cycles = 0;
  lopass::Cycles sw_cycles = 0;      // cycles the cluster costs in software
  Energy e_asic_estimate;            // Fig. 1 line 11
  Energy e_up_residual;              // line 12
  Energy e_rest;                     // caches + memory + bus (+ E_trans)
  Energy e_trans;                    // Fig. 3 step 5
  double objective = 0.0;
  bool feasible = false;
  std::string reject_reason;
  asic::UtilizationResult util;      // kept for synthesis of the winner
  Transfers transfers;
};

struct PartitionDecision {
  int cluster_id = -1;
  std::string cluster_label;
  asic::AsicCore core;
  // The core's structure (units, steering, FSM), built from the
  // winner's evaluation schedules; set under include_interconnect.
  std::optional<asic::Datapath> datapath;
  Transfers transfers;
};

struct PartitionResult {
  iss::SimResult initial_run;
  iss::SimResult partitioned_run;  // equals initial_run when nothing selected
  std::vector<PartitionDecision> selected;
  lopass::Cycles asic_cycles = 0;
  Energy asic_energy;
  std::vector<ClusterEvaluation> evaluations;
  ClusterChain chain;
  // Per-cluster failures isolated during the flow (a candidate whose
  // scheduling/synthesis failed, a partitioned re-simulation that had
  // to fall back, ...). The flow still returns a valid partition —
  // worst case the all-software baseline — but drivers should surface
  // these and treat any error-severity entry as a degraded (nonzero
  // exit) run.
  std::vector<Diagnostic> diagnostics;

  bool partitioned() const { return !selected.empty(); }
  // True when any isolated failure was recorded (the result is still
  // valid but the flow did not complete as requested).
  bool degraded() const {
    for (const Diagnostic& d : diagnostics) {
      if (d.severity == Severity::kError) return true;
    }
    return false;
  }
  double total_cells() const;
  // Builds the Table 1 row for this application.
  AppRow ToRow(const std::string& app_name) const;
};

// Line-15 re-simulations (accounting passes over the baseline's trace)
// already run on one AppBaseline, keyed on the full HwPartition (block ->
// cluster map and each cluster's I/O words). Not locked: one thread at
// a time runs Partitioner::Run on a baseline (AppBaseline).
class ResimMemo {
 public:
  // Copies the stored run for `partition` into `out`; false on a miss.
  bool Find(const iss::HwPartition& partition, iss::SimResult& out) const;
  // Stores the run of a partition that Find missed.
  void Publish(const iss::HwPartition& partition, const iss::SimResult& run);
  int runs() const { return runs_; }      // simulations published
  int reused() const { return reused_; }  // Find hits

 private:
  std::vector<std::pair<iss::HwPartition, iss::SimResult>> entries_;
  int runs_ = 0;
  mutable int reused_ = 0;
};

// A pre-selected cluster (Fig. 1 line 5) with its block DFGs (BuildClusterDfgs).
struct PreselectedCluster {
  const Cluster* cluster = nullptr;  // points into AppBaseline::chain
  std::vector<sched::BlockDfg> dfgs;
};

// The steps of Fig. 1 that read the application, never the resource
// sets: the SL32 program, the initial whole-system run (whose block
// entries are the profiled #ex_times), decomposition (line 2), transfer
// energy (lines 3-4), the ranked pre-selection (line 5) and the block
// DFGs of the pre-selected clusters. Partitioner::Run(const
// AppBaseline&) runs lines 6-15 on it, so one baseline serves every
// resource set of an application, and Run never builds a DFG.
//
// A baseline fits any Partitioner over the same module, regions,
// library, µP model, workload and PartitionOptions, except that
// resource_sets and cancel may differ. It is immutable once built
// except for its re-simulation memo, which Run fills unlocked: one
// thread at a time may run Run on a baseline. (The sweep's worker that
// builds an application's baseline runs all of that application's
// jobs, and reads the memo's counts itself.)
struct AppBaseline {
  const ir::Module* module = nullptr;
  Workload workload;
  isa::SlProgram program;
  // The program's accounting tables and the initial run's trace: the
  // initial run and every line-15 re-simulation are passes over them.
  std::optional<iss::Accounting> accounting;
  iss::Trace trace;
  iss::SimResult initial_run;
  ClusterChain chain;
  // Why line 2 failed (the flow then falls back to all-software);
  // empty when the chain is valid.
  std::string decomposition_error;
  // Self-check findings on the chain and its gen/use sets.
  std::vector<Diagnostic> chain_findings;
  // Reads `chain`; null when decomposition failed.
  std::unique_ptr<BusTrafficAnalyzer> traffic;
  // Pre-selected clusters, best benefit first.
  std::vector<PreselectedCluster> ranked;
  mutable ResimMemo resims;
};

// The candidate stage of Fig. 1: one cluster under one resource set.
// Partitioner::BuildBaseline and Run and `lopass lint` call it, each
// with its own profile, scheduler options and prefix for its findings.
//
// The DFGs of the cluster's blocks, in `c.blocks` order. A block DFG
// depends on the block alone, so every resource set schedules these.
std::vector<sched::BlockDfg> BuildClusterDfgs(const ir::Module& module, const Cluster& c);

// A cluster's blocks scheduled under one set. Move-only: `blocks`
// points into `schedules` (whose storage a move keeps) and the DFGs.
struct ScheduledCandidate {
  ScheduledCandidate() = default;
  ScheduledCandidate(ScheduledCandidate&&) = default;
  ScheduledCandidate& operator=(ScheduledCandidate&&) = default;

  std::string infeasible;  // why the set cannot implement the cluster
  std::vector<sched::BlockSchedule> schedules;
  std::vector<asic::ScheduledBlock> blocks;
  std::optional<asic::UtilizationResult> util;  // unset when an L4xx check fails
};

// Lines 8-9: list-schedules the DFGs of `c` under `rs`, runs the L4xx
// checks into `checks` (none when null) and computes utilization with
// each block weighted by its #ex_times in `profile` (1 when null). A
// set lacking a resource for some operation makes the candidate
// infeasible; any other Error (an injected fault, a cancellation) throws.
ScheduledCandidate ScheduleCandidate(const Cluster& c, const std::vector<sched::BlockDfg>& dfgs,
                                     const iss::SimResult* profile, const sched::ResourceSet& rs,
                                     const power::TechLibrary& lib,
                                     const sched::SchedulerOptions& options,
                                     DiagnosticSink* checks, const std::string& where);

// Line 14: synthesizes the core of `c`, with one register per gen/use
// scalar plus two temporaries. With `datapath_blocks` it builds the
// datapath from them and runs the L5xx checks, Verilog included, into
// `checks` (none when null). Leaves the transfers to the caller.
PartitionDecision SynthesizeCandidate(const ir::Module& module,
                                      const BusTrafficAnalyzer& traffic, const Cluster& c,
                                      const std::string& resource_set,
                                      const asic::UtilizationResult& util,
                                      const std::vector<asic::ScheduledBlock>* datapath_blocks,
                                      const power::TechLibrary& lib, DiagnosticSink* checks,
                                      const std::string& where);

class Partitioner {
 public:
  Partitioner(const ir::Module& module, const ir::RegionTree& regions,
              PartitionOptions options = PartitionOptions{},
              const power::TechLibrary& lib = power::TechLibrary::Cmos6(),
              const iss::TiwariModel& up_model = iss::TiwariModel::Sparclite());

  // Runs the full flow of Fig. 5 on the given workload: BuildBaseline,
  // then Run on that baseline. Throws CancelledError if
  // options().cancel fires mid-flow; every other per-candidate failure
  // is isolated into the result's diagnostics.
  PartitionResult Run(const Workload& workload) const;

  // Lines 6-15 on a baseline that may be shared with other runs, one
  // at a time; the only path for them, so the result equals
  // Run(baseline.workload). The line-15 re-simulation is memoized in
  // the baseline. The result
  // gets its own copy of the initial run and the chain.
  PartitionResult Run(const AppBaseline& baseline) const;

  // The application stage. It runs with fault injection masked: Run
  // hits the profile, sim and alloc sites instead, so every run hits
  // each once whether it built its baseline or shares one, and a
  // baseline never holds an injected failure. Throws CancelledError or
  // Error when the initial simulation or a block DFG build fails, so no
  // failed baseline is ever kept.
  std::shared_ptr<AppBaseline> BuildBaseline(const Workload& workload) const;

  const PartitionOptions& options() const { return options_; }

 private:
  const ir::Module& module_;
  const ir::RegionTree& regions_;
  PartitionOptions options_;
  const power::TechLibrary& lib_;
  const iss::TiwariModel& up_model_;
};

}  // namespace lopass::core
