#include "core/partitioner.h"

#include <algorithm>
#include <unordered_set>

#include "asic/netlist_check.h"
#include "asic/verilog.h"
#include "common/error.h"
#include "common/fault.h"
#include "core/partition_check.h"
#include "isa/codegen.h"
#include "isa/peephole.h"
#include "sched/list_scheduler.h"
#include "sched/validate.h"

namespace lopass::core {

std::vector<sched::BlockDfg> BuildClusterDfgs(const ir::Module& module, const Cluster& c) {
  std::vector<sched::BlockDfg> dfgs;
  dfgs.reserve(c.blocks.size());
  for (const auto& [fn, block] : c.blocks) {
    dfgs.push_back(sched::BuildBlockDfg(module.function(fn).block(block)));
  }
  return dfgs;
}

ScheduledCandidate ScheduleCandidate(const Cluster& c, const std::vector<sched::BlockDfg>& dfgs,
                                     const iss::SimResult* profile, const sched::ResourceSet& rs,
                                     const power::TechLibrary& lib,
                                     const sched::SchedulerOptions& options,
                                     DiagnosticSink* checks, const std::string& where) {
  ScheduledCandidate sc;
  sc.schedules.reserve(dfgs.size());
  try {
    for (const sched::BlockDfg& dfg : dfgs) {
      sc.schedules.push_back(sched::ListSchedule(dfg, rs, lib, options));
    }
  } catch (const InjectedFault&) {
    throw;  // an injected fault fails the stage
  } catch (const Error& e) {
    // Any other scheduler error means the set cannot implement some
    // operation.
    sc.infeasible = e.what();
    return sc;
  }
  const std::size_t errors_before = checks != nullptr ? checks->error_count() : 0;
  for (std::size_t i = 0; i < dfgs.size(); ++i) {
    if (checks != nullptr) {
      sched::ValidateSchedule(dfgs[i], sc.schedules[i], rs, lib, *checks,
                              options.enable_chaining,
                              where + ", block " + std::to_string(i) + ", set '" + rs.name + "'");
    }
    const auto& [fn, block] = c.blocks[i];
    sc.blocks.push_back(asic::ScheduledBlock{
        &dfgs[i], &sc.schedules[i], profile ? profile->block_cost(fn, block).entries : 1});
  }
  // A schedule that fails its check is never priced.
  if (checks != nullptr && checks->error_count() > errors_before) return sc;
  sc.util = asic::ComputeUtilization(sc.blocks, rs, lib);
  return sc;
}

PartitionDecision SynthesizeCandidate(const ir::Module& module,
                                      const BusTrafficAnalyzer& traffic, const Cluster& c,
                                      const std::string& resource_set,
                                      const asic::UtilizationResult& util,
                                      const std::vector<asic::ScheduledBlock>* datapath_blocks,
                                      const power::TechLibrary& lib, DiagnosticSink* checks,
                                      const std::string& where) {
  PartitionDecision d;
  d.cluster_id = c.id;
  d.cluster_label = c.label;
  const GenUse& gu = traffic.cluster_gen_use(c.id);
  std::unordered_set<ir::SymbolId> scalars;
  for (const auto* symbols : {&gu.gen, &gu.use}) {
    for (ir::SymbolId s : *symbols) {
      if (module.symbol(s).kind == ir::SymbolKind::kScalar) scalars.insert(s);
    }
  }
  const int regs = 2 + static_cast<int>(scalars.size());
  const std::string at = where + ", set '" + resource_set + "'";
  if (datapath_blocks != nullptr) {
    d.datapath = asic::BuildDatapath(*datapath_blocks, util);
    if (checks != nullptr) asic::ValidateDatapath(*datapath_blocks, util, *d.datapath, *checks, at);
  }
  d.core = asic::Synthesize(c.label, resource_set, util, lib, regs,
                            d.datapath ? &*d.datapath : nullptr);
  if (d.datapath && checks != nullptr) {
    asic::ValidateVerilog(asic::EmitVerilog(d.core, *d.datapath), *d.datapath, *checks, at);
  }
  return d;
}

namespace {

// U_R weighted by resource size (the variant §3.4 reports does *not*
// improve partitions — kept for the ablation bench).
double WeightedUtilization(const asic::UtilizationResult& util,
                           const power::TechLibrary& lib) {
  if (util.total_cycles == 0 || util.instance_util.empty()) return 0.0;
  double num = 0.0, den = 0.0;
  for (const asic::InstanceUtil& u : util.instance_util) {
    const double w = lib.spec(u.type).geq;
    num += w * static_cast<double>(u.active_cycles) / static_cast<double>(util.total_cycles);
    den += w;
  }
  return den > 0.0 ? num / den : 0.0;
}

// The inputs of one Run that every candidate evaluation reads.
struct FlowInputs {
  const ir::Module& module;
  const PartitionOptions& options;
  const sched::SchedulerOptions& sched_opts;
  const power::TechLibrary& lib;
  const iss::SimResult& initial_run;
  const BusTrafficAnalyzer& traffic;
};

// What the clusters accepted in earlier greedy rounds already claim.
struct Accepted {
  std::unordered_set<int> ids;
  std::unordered_set<int> chain_pos;
  Energy up_removed;  // µP energy of their blocks
  Energy asic_added;  // estimated energy of their cores
  double geq = 0.0;
};

// One evaluated cluster × resource set pairing. The caller keeps the
// schedule only while the candidate is the round's best and synthesis
// will read it: under include_interconnect the winner's datapath is
// built from it (line 14), so no block is scheduled twice.
struct Candidate {
  ClusterEvaluation ev;
  ScheduledCandidate schedule;
};

// Fig. 1 lines 8-13 for one pairing. Self-check findings go to
// `sink`; an injected fault or a cancellation propagates.
Candidate EvaluateCandidate(const FlowInputs& in, const PreselectedCluster& p,
                            const sched::ResourceSet& rs, const Accepted& accepted,
                            DiagnosticSink& sink) {
  const Cluster& c = *p.cluster;
  const PartitionOptions& options = in.options;
  const iss::SimResult& initial = in.initial_run;
  Candidate cand;
  ClusterEvaluation& ev = cand.ev;
  ev.cluster_id = c.id;
  ev.cluster_label = c.label;
  ev.resource_set = rs.name;
  ev.transfers = in.traffic.Compute(c, options.use_synergy ? accepted.ids
                                                           : std::unordered_set<int>{});
  ev.e_trans = ev.transfers.energy;

  // Self-check: prove each schedule respects precedence and resource
  // limits, and the transfer estimate its bounds, before any energy
  // math uses them. A failing candidate is rejected, not synthesized.
  const std::size_t errors_before = sink.error_count();
  cand.schedule = ScheduleCandidate(c, p.dfgs, &initial, rs, in.lib, in.sched_opts,
                                    options.self_check ? &sink : nullptr,
                                    "cluster '" + c.label + "'");
  if (!cand.schedule.infeasible.empty()) {
    ev.feasible = false;
    ev.reject_reason = cand.schedule.infeasible;
    return cand;
  }
  if (options.self_check) {
    ValidateTransfers(in.module, c, ev.transfers, sink);
    if (sink.error_count() > errors_before) {
      ev.feasible = false;
      ev.reject_reason = "self-check: schedule/transfer validation failed";
      return cand;
    }
  }
  ev.util = std::move(*cand.schedule.util);
  ev.u_asic = options.weighted_utilization ? WeightedUtilization(ev.util, in.lib)
                                           : ev.util.u_core;
  ev.u_up = initial.UtilizationOfBlocks(c.blocks);
  ev.asic_cycles = ev.util.total_cycles;
  ev.geq = asic::WithControllerGeq(ev.util.geq);

  // µP-clock-equivalent ASIC cycles at the core's own clock.
  const double up_equiv_cycles =
      static_cast<double>(ev.util.total_cycles) *
      asic::CoreClockPeriod(ev.util.instances, in.lib).seconds /
      in.lib.params().clock_period().seconds;

  const iss::BlockCost sw = initial.CostOfBlocks(c.blocks);
  ev.sw_cycles = sw.cycles;

  // Line 9: utilization test (the low-power strategy's gate; the
  // performance baseline does not use it).
  if (options.strategy == Strategy::kLowPower && ev.u_asic <= ev.u_up) {
    ev.feasible = false;
    ev.reject_reason = "U_R <= U_uP";
    return cand;
  }
  // Optional hard hardware cap.
  if (options.max_cells > 0.0 && ev.geq + accepted.geq > options.max_cells) {
    ev.feasible = false;
    ev.reject_reason = "exceeds cell cap";
    return cand;
  }

  // Lines 11-12: energy estimates.
  ev.e_asic_estimate = asic::EstimateEnergy(ev.util, in.lib) + accepted.asic_added;
  ev.e_up_residual = initial.energy.up_core - accepted.up_removed - sw.energy;
  const double instr_frac =
      initial.instr_count == 0
          ? 0.0
          : static_cast<double>(sw.instrs) / static_cast<double>(initial.instr_count);
  const Energy rest0 =
      initial.energy.icache + initial.energy.dcache + initial.energy.mem + initial.energy.bus;
  ev.e_rest = rest0 * (1.0 - std::min(1.0, instr_frac)) + ev.e_trans;

  if (options.strategy == Strategy::kPerformance) {
    // Baseline objective: estimated execution time, normalized, plus
    // the same hardware term.
    const double transfer_cycles = 2.0 * static_cast<double>(ev.transfers.total_words());
    const double est_cycles = static_cast<double>(initial.up_cycles) -
                              static_cast<double>(sw.cycles) + up_equiv_cycles +
                              transfer_cycles;
    const double time_term = est_cycles / static_cast<double>(initial.up_cycles);
    ev.objective = options.objective.f * time_term +
                   options.objective.g * ((ev.geq + accepted.geq) / kGeqNorm);
    ev.feasible = true;
    return cand;
  }

  // Line 13: objective function.
  const Energy total_est = ev.e_asic_estimate + ev.e_up_residual + ev.e_rest;
  ev.objective =
      Objective(total_est, initial.energy.total(), ev.geq + accepted.geq, options.objective);
  ev.feasible = true;
  return cand;
}

// The all-software baseline: nothing mapped, no ASIC core.
void FallBackToSoftware(PartitionResult& result, const iss::SimResult& initial_run) {
  result.selected.clear();
  result.asic_cycles = 0;
  result.asic_energy = Energy{};
  result.partitioned_run = initial_run;
}

}  // namespace

double PartitionResult::total_cells() const {
  double cells = 0.0;
  for (const PartitionDecision& d : selected) cells += d.core.cells;
  return cells;
}

AppRow PartitionResult::ToRow(const std::string& app_name) const {
  AppRow row;
  row.app = app_name;
  row.initial = initial_run.energy;
  row.initial_time.up_cycles = initial_run.up_cycles;

  const iss::SimResult& part = partitioned() ? partitioned_run : initial_run;
  row.partitioned = part.energy;
  row.partitioned.asic_core = asic_energy;
  row.partitioned_time.up_cycles = part.up_cycles;
  row.partitioned_time.asic_cycles = asic_cycles;

  row.asic_cells = total_cells();
  if (!selected.empty()) {
    row.asic_utilization = selected.front().core.utilization;
    row.resource_set = selected.front().core.resource_set;
    std::string labels;
    for (const PartitionDecision& d : selected) {
      if (!labels.empty()) labels += " + ";
      labels += d.cluster_label;
    }
    row.cluster = labels;
  } else {
    row.cluster = "(none)";
  }
  return row;
}

Partitioner::Partitioner(const ir::Module& module, const ir::RegionTree& regions,
                         PartitionOptions options, const power::TechLibrary& lib,
                         const iss::TiwariModel& up_model)
    : module_(module),
      regions_(regions),
      options_(std::move(options)),
      lib_(lib),
      up_model_(up_model) {
  LOPASS_CHECK(!options_.resource_sets.empty(), "at least one resource set required");
}

namespace {

// One execution of the baseline's workload on the ISS.
iss::Trace Execute(const AppBaseline& b, const iss::SystemConfig& config,
                   std::uint64_t max_instrs) {
  iss::Simulator sim(*b.module, b.program, config);
  if (b.workload.setup) {
    EngineTarget<iss::Simulator> t(sim);
    b.workload.setup(t);
  }
  return sim.Execute(b.workload.entry, b.workload.args, max_instrs);
}

}  // namespace

bool ResimMemo::Find(const iss::HwPartition& partition, iss::SimResult& out) const {
  for (const auto& [key, run] : entries_) {
    if (key == partition) {
      out = run;
      ++reused_;
      return true;
    }
  }
  return false;
}

void ResimMemo::Publish(const iss::HwPartition& partition, const iss::SimResult& run) {
  ++runs_;
  entries_.emplace_back(partition, run);
}

std::shared_ptr<AppBaseline> Partitioner::BuildBaseline(const Workload& workload) const {
  const fault::JobScope masked("");
  CheckCancel(options_.cancel, "partitioner (startup)");
  auto b = std::make_shared<AppBaseline>();
  b->module = &module_;
  b->workload = workload;

  // --- Fig. 1 line 1: the graph is the IR; build the SL32 program. ----
  b->program = isa::Generate(module_);
  if (options_.peephole) isa::Peephole(b->program);

  // --- initial whole-system simulation, which also profiles #ex_times
  // (Fig. 4 footnote 14) ------------------------------------------------
  // Line 15 prices every partition from this run's trace.
  CheckCancel(options_.cancel, "partitioner (initial simulation)");
  b->accounting.emplace(module_, b->program, lib_, up_model_);
  b->trace = Execute(*b, options_.initial_config, options_.max_sim_instrs);
  b->initial_run =
      b->accounting->Account(b->trace, iss::HwPartition{}, options_.initial_config);

  // --- Fig. 1 line 2: cluster decomposition ----------------------------
  // Isolation boundary: if decomposition fails, the all-software
  // baseline is still a valid answer — Run records the failure and
  // returns it.
  try {
    b->chain = DecomposeIntoClusters(module_, regions_, b->workload.entry);
  } catch (const Error& e) {
    b->decomposition_error = e.what();
    return b;
  }

  // --- Fig. 1 lines 3-4: bus-transfer energy (Fig. 3) ------------------
  b->traffic = std::make_unique<BusTrafficAnalyzer>(module_, b->chain, lib_,
                                                    options_.initial_config.memory_bytes);

  // Self-check: the decomposition and the gen/use sets behind the
  // traffic model are the foundation every later estimate rests on.
  if (options_.self_check) {
    DiagnosticSink sc;
    ValidateClusterChain(module_, b->chain, sc);
    ValidateGenUse(module_, b->chain, *b->traffic, sc);
    b->chain_findings = sc.Take();
  }

  // --- Fig. 1 line 5: pre-selection ------------------------------------
  struct Ranked {
    const Cluster* cluster;
    double benefit;  // SW energy of the cluster minus transfer energy
  };
  std::vector<Ranked> ranked;
  for (const Cluster& c : b->chain.clusters) {
    if (!c.hw_candidate) continue;
    const Energy sw_energy = b->initial_run.CostOfBlocks(c.blocks).energy;
    const Transfers t = b->traffic->Compute(c);
    ranked.push_back(Ranked{&c, sw_energy.joules - t.energy.joules});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& x, const Ranked& y) { return x.benefit > y.benefit; });
  if (static_cast<int>(ranked.size()) > options_.max_preselect) {
    ranked.resize(static_cast<std::size_t>(options_.max_preselect));
  }
  // The DFGs every resource set schedules. A build failure throws: a
  // baseline never holds one.
  for (const Ranked& r : ranked) {
    b->ranked.push_back(PreselectedCluster{r.cluster, BuildClusterDfgs(module_, *r.cluster)});
  }
  return b;
}

PartitionResult Partitioner::Run(const Workload& workload) const {
  return Run(*BuildBaseline(workload));
}

PartitionResult Partitioner::Run(const AppBaseline& b) const {
  LOPASS_CHECK(b.module == &module_, "baseline built for another module");
  PartitionResult result;
  // Every finding of this run, in Fig. 1 order.
  DiagnosticSink sink;

  CheckCancel(options_.cancel, "partitioner (startup)");

  // The application stage ran masked (see BuildBaseline): its fault
  // sites fire here, in Fig. 1 order, with the effect they have there.
  // The profile and sim sites stand for the initial simulation, which
  // also profiles; both throw out of Run.
  fault::MaybeInject("profile");
  fault::MaybeInject("sim");
  const iss::SimResult& initial = b.initial_run;
  result.initial_run = initial;

  // Line 2 failed, or its alloc site fires: all-software fallback.
  std::string decomposition_error = b.decomposition_error;
  try {
    fault::MaybeInject("alloc");
  } catch (const InjectedFault& e) {
    decomposition_error = e.what();
  }
  if (!decomposition_error.empty()) {
    sink.AddError("partition.cluster",
                  "cluster decomposition failed (all-software fallback): " + decomposition_error);
    FallBackToSoftware(result, initial);
    result.diagnostics = sink.Take();
    return result;
  }
  const ClusterChain& chain = b.chain;
  result.chain = chain;
  const BusTrafficAnalyzer& traffic = *b.traffic;
  for (const Diagnostic& d : b.chain_findings) sink.Add(d);

  // Scheduler options with the run's cancel token threaded through, so
  // a deadline also interrupts a long list schedule mid-cluster.
  sched::SchedulerOptions sched_opts = options_.scheduler;
  if (options_.cancel != nullptr) sched_opts.cancel = options_.cancel;

  // --- Fig. 1 lines 6-13: evaluate cluster × resource set --------------
  // Greedy selection of up to max_hw_clusters clusters.
  const FlowInputs in{module_, options_, sched_opts, lib_, initial, traffic};
  Accepted accepted;
  double current_of = BaselineObjective(options_.objective);
  std::vector<Candidate> winners;

  for (int round = 0; round < options_.max_hw_clusters; ++round) {
    std::optional<Candidate> best;
    for (const PreselectedCluster& p : b.ranked) {
      const Cluster& c = *p.cluster;
      if (accepted.ids.count(c.id) || accepted.chain_pos.count(c.chain_pos)) continue;
      for (const sched::ResourceSet& rs : options_.resource_sets) {
        Candidate cand;
        // Per-cluster isolation: a candidate whose evaluation throws
        // (rather than reporting infeasibility) is recorded and
        // skipped; the flow continues with the remaining candidates
        // and, worst case, falls back to the all-software baseline.
        CheckCancel(options_.cancel, "partitioner (candidate evaluation)");
        try {
          cand = EvaluateCandidate(in, p, rs, accepted, sink);
        } catch (const Error& e) {
          ClusterEvaluation& ev = cand.ev;
          ev.cluster_id = c.id;
          ev.cluster_label = c.label;
          ev.resource_set = rs.name;
          ev.feasible = false;
          ev.reject_reason = e.what();
          sink.AddError("partition.evaluate", "evaluation of cluster '" + c.label +
                                                  "' with resource set '" + rs.name +
                                                  "' failed (candidate skipped): " + e.what());
        }
        if (round == 0) result.evaluations.push_back(cand.ev);
        if (!cand.ev.feasible) continue;
        // Synthesis reads the schedule only to build the datapath.
        if (!options_.include_interconnect) cand.schedule = {};
        if (!best || cand.ev.objective < best->ev.objective) best = std::move(cand);
      }
    }
    if (!best || best->ev.objective >= current_of) break;

    // Accept.
    const ClusterEvaluation& ev = best->ev;
    const Cluster& c = chain.clusters[static_cast<std::size_t>(ev.cluster_id)];
    accepted.ids.insert(ev.cluster_id);
    accepted.chain_pos.insert(c.chain_pos);
    accepted.up_removed += initial.CostOfBlocks(c.blocks).energy;
    accepted.asic_added += asic::EstimateEnergy(ev.util, lib_);
    accepted.geq += ev.geq;
    current_of = ev.objective;
    winners.push_back(std::move(*best));
  }

  // --- Fig. 1 line 14: synthesize the winning cores --------------------
  for (const Candidate& w : winners) {
    CheckCancel(options_.cancel, "partitioner (synthesis)");
    const Cluster& c = chain.clusters[static_cast<std::size_t>(w.ev.cluster_id)];
    try {
      PartitionDecision d = SynthesizeCandidate(
          module_, traffic, c, w.ev.resource_set, w.ev.util,
          options_.include_interconnect ? &w.schedule.blocks : nullptr, lib_,
          options_.self_check ? &sink : nullptr, "cluster '" + c.label + "'");
      result.asic_cycles += d.core.cycles;
      result.asic_energy += d.core.refined_energy;
      result.selected.push_back(std::move(d));
    } catch (const Error& e) {
      // Isolation: a core that fails to synthesize is dropped — its
      // cluster simply stays in software.
      sink.AddError("partition.synthesize", "synthesis of core for cluster '" + c.label +
                                                "' failed (cluster stays in software): " +
                                                e.what());
    }
  }
  if (result.selected.empty()) {
    FallBackToSoftware(result, initial);
    result.diagnostics = sink.Take();
    return result;
  }

  // Transfers and the selection check cover only the cores that
  // synthesized: a neighbour whose synthesis failed stays in software,
  // so its data crosses the shared memory after all.
  std::unordered_set<int> hw_ids;
  for (const PartitionDecision& d : result.selected) hw_ids.insert(d.cluster_id);
  for (PartitionDecision& d : result.selected) {
    d.transfers = traffic.Compute(chain.clusters[static_cast<std::size_t>(d.cluster_id)],
                                  options_.use_synergy ? hw_ids : std::unordered_set<int>{});
  }
  // Self-check: the greedy selection must never map one chain position
  // twice (a function cluster and the leaf hosting its call site
  // shadow each other) and only real hardware candidates.
  if (options_.self_check) ValidateHwSelection(chain, hw_ids, sink);

  // --- Fig. 1 line 15: whole-system partitioned re-estimation ----------
  iss::HwPartition partition;
  partition.block_cluster.resize(module_.num_functions());
  for (std::size_t f = 0; f < module_.num_functions(); ++f) {
    partition.block_cluster[f].assign(
        module_.function(static_cast<ir::FunctionId>(f)).blocks.size(), -1);
  }
  for (std::size_t k = 0; k < result.selected.size(); ++k) {
    const PartitionDecision& d = result.selected[k];
    const Cluster& c = chain.clusters[static_cast<std::size_t>(d.cluster_id)];
    for (const auto& [fn, block] : c.blocks) {
      partition.block_cluster[static_cast<std::size_t>(fn)][static_cast<std::size_t>(block)] =
          static_cast<int>(k);
    }
    iss::HwPartition::ClusterIo io;
    io.entry_words = static_cast<std::uint32_t>(d.transfers.up_to_mem_words);
    io.exit_words = static_cast<std::uint32_t>(d.transfers.asic_to_mem_words);
    partition.clusters.push_back(io);
  }

  CheckCancel(options_.cancel, "partitioner (partitioned re-simulation)");
  try {
    const iss::SystemConfig& config =
        options_.partitioned_config.value_or(options_.initial_config);
    // The initial run's trace priced under the partition, or an
    // earlier pricing of the same partition on this baseline.
    fault::MaybeInject("sim");
    if (!b.resims.Find(partition, result.partitioned_run)) {
      result.partitioned_run = b.accounting->Account(b.trace, partition, config);
      b.resims.Publish(partition, result.partitioned_run);
    }
  } catch (const Error& e) {
    // Isolation: if the partitioned re-simulation fails, fall back to
    // the (already validated) all-software result rather than crash.
    sink.AddError("partition.resim",
                  std::string("partitioned re-simulation failed (all-software fallback): ") +
                      e.what());
    FallBackToSoftware(result, initial);
  }
  result.diagnostics = sink.Take();
  return result;
}

}  // namespace lopass::core
