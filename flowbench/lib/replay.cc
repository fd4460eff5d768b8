#include "replay.h"

#include <unordered_set>
#include <vector>

#include "asic/synthesis.h"
#include "asic/utilization.h"
#include "common/error.h"
#include "core/cluster.h"
#include "core/dataflow.h"
#include "core/partition_check.h"
#include "interp/interpreter.h"
#include "isa/codegen.h"
#include "isa/peephole.h"
#include "iss/simulator.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"
#include "sched/validate.h"

namespace flowbench {
namespace {

using namespace lopass;

// Binds an execution engine to the workload's data-installation hook.
template <typename Engine>
class EngineTarget : public core::DataTarget {
 public:
  explicit EngineTarget(Engine& engine) : engine_(engine) {}
  void SetScalar(const std::string& name, std::int64_t value) override {
    engine_.SetScalar(name, value);
  }
  void FillArray(const std::string& name, std::span<const std::int64_t> values) override {
    engine_.FillArray(name, values);
  }

 private:
  Engine& engine_;
};

iss::SimResult Simulate(const Job& job, const ir::Module& module, const isa::SlProgram& sl,
                        const iss::SystemConfig& config, const iss::HwPartition& partition,
                        Tracer& tracer) {
  iss::SimResult r;
  {
    ScopedSpan span(tracer, "iss.run");
    iss::Simulator sim(module, sl, config, power::TechLibrary::Cmos6(),
                       iss::TiwariModel::Sparclite());
    if (job.workload.setup) {
      EngineTarget<iss::Simulator> target(sim);
      job.workload.setup(target);
    }
    r = sim.Run(job.workload.entry, job.workload.args, partition, job.options.max_sim_instrs);
  }
  tracer.Count("iss.instrs", static_cast<double>(r.instr_count));
  tracer.Count("cache.accesses",
               static_cast<double>(r.icache_stats.accesses() + r.dcache_stats.accesses()));
  tracer.Count("cache.misses",
               static_cast<double>(r.icache_stats.misses() + r.dcache_stats.misses()));
  return r;
}

bool SameRun(const iss::SimResult& a, const iss::SimResult& b) {
  return a.return_value == b.return_value && a.instr_count == b.instr_count &&
         a.up_cycles == b.up_cycles;
}

}  // namespace

core::PartitionResult RunColdJob(const Job& job, Tracer& tracer,
                                 std::optional<dsl::LoweredProgram>& program) {
  ScopedSpan span(tracer, "runner.job");
  {
    ScopedSpan compile(tracer, "dsl.compile");
    program.emplace(dsl::Compile(job.source));
  }
  ScopedSpan partition(tracer, "core.partition");
  core::Partitioner partitioner(program->module, program->regions, job.options);
  return partitioner.Run(job.workload);
}

std::string ReplayJob(const Job& job, const dsl::LoweredProgram& program,
                      const core::PartitionResult& result, Tracer& tracer) {
  const core::PartitionOptions& opt = job.options;
  if (opt.max_hw_clusters != 1 || opt.include_interconnect || opt.weighted_utilization) {
    return "replay mirrors only one hardware cluster without interconnect";
  }
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  const ir::Module& module = program.module;
  ScopedSpan replay(tracer, "core.replay");

  isa::SlProgram sl;
  {
    ScopedSpan span(tracer, "isa.codegen");
    sl = isa::Generate(module);
    if (opt.peephole) isa::Peephole(sl);
  }

  interp::Interpreter profiler(module);
  {
    ScopedSpan span(tracer, "interp.run");
    if (job.workload.setup) {
      EngineTarget<interp::Interpreter> target(profiler);
      job.workload.setup(target);
    }
    profiler.Run(job.workload.entry, job.workload.args, opt.max_interp_steps);
  }
  const interp::Profile& profile = profiler.profile();
  tracer.Count("interp.ops", static_cast<double>(profile.total_dynamic_ops));

  const iss::SimResult initial =
      Simulate(job, module, sl, opt.initial_config, iss::HwPartition{}, tracer);
  if (!SameRun(initial, result.initial_run)) return "initial ISS run differs";

  core::ClusterChain chain;
  {
    ScopedSpan span(tracer, "core.decompose");
    chain = core::DecomposeIntoClusters(module, program.regions, opt.entry);
  }
  std::optional<core::BusTrafficAnalyzer> traffic;
  {
    ScopedSpan span(tracer, "core.traffic");
    traffic.emplace(module, chain, lib, opt.initial_config.memory_bytes);
    for (const core::Cluster& c : chain.clusters) {
      if (c.hw_candidate) traffic->Compute(c);  // pre-selection ranking
    }
  }
  DiagnosticSink sink;
  if (opt.self_check) {
    ScopedSpan span(tracer, "analysis.validate");
    core::ValidateClusterChain(module, chain, sink);
    core::ValidateGenUse(module, chain, *traffic, sink);
  }

  std::vector<asic::UtilizationResult> utils(result.evaluations.size());
  for (std::size_t k = 0; k < result.evaluations.size(); ++k) {
    const core::ClusterEvaluation& ev = result.evaluations[k];
    tracer.Count("core.evaluations", 1);
    tracer.Count("core.feasible", ev.feasible ? 1 : 0);
    if (ev.cluster_id < 0 || static_cast<std::size_t>(ev.cluster_id) >= chain.clusters.size()) {
      return "evaluation names an unknown cluster";
    }
    const core::Cluster& c = chain.clusters[static_cast<std::size_t>(ev.cluster_id)];
    const sched::ResourceSet* rs = nullptr;
    for (const sched::ResourceSet& s : opt.resource_sets) {
      if (s.name == ev.resource_set) rs = &s;
    }
    if (rs == nullptr) return "evaluation names an unknown resource set";
    {
      ScopedSpan span(tracer, "core.traffic");
      if (traffic->Compute(c).total_words() != ev.transfers.total_words()) {
        return "transfer estimate differs";
      }
    }

    std::vector<sched::BlockDfg> dfgs;
    std::vector<sched::BlockSchedule> schedules;
    dfgs.reserve(c.blocks.size());
    bool scheduled = true;
    for (const auto& [fn, b] : c.blocks) {
      {
        ScopedSpan span(tracer, "sched.dfg");
        dfgs.push_back(sched::BuildBlockDfg(module.function(fn).block(b)));
      }
      tracer.Count("sched.schedules", 1);
      tracer.Count("sched.dfg_ops", static_cast<double>(dfgs.back().size()));
      try {
        ScopedSpan span(tracer, "sched.list_schedule");
        schedules.push_back(sched::ListSchedule(dfgs.back(), *rs, lib, opt.scheduler));
      } catch (const Error&) {
        scheduled = false;  // the set lacks a resource some op needs
        break;
      }
    }
    if (!scheduled) {
      if (ev.feasible) return "a feasible candidate failed to schedule";
      continue;
    }

    const std::size_t errors_before = sink.error_count();
    if (opt.self_check) {
      ScopedSpan span(tracer, "analysis.validate");
      for (std::size_t i = 0; i < dfgs.size(); ++i) {
        sched::ValidateSchedule(dfgs[i], schedules[i], *rs, lib, sink,
                                opt.scheduler.enable_chaining);
      }
      core::ValidateTransfers(module, c, ev.transfers, sink);
    }
    if (sink.error_count() != errors_before) continue;

    std::vector<asic::ScheduledBlock> sblocks;
    for (std::size_t i = 0; i < c.blocks.size(); ++i) {
      sblocks.push_back(asic::ScheduledBlock{
          &dfgs[i], &schedules[i], profile.BlockCount(c.blocks[i].first, c.blocks[i].second)});
    }
    {
      ScopedSpan span(tracer, "asic.utilization");
      utils[k] = asic::ComputeUtilization(sblocks, *rs, lib);
    }
    if (utils[k].total_cycles != ev.asic_cycles) return "ASIC cycle count differs";
  }

  iss::SimResult partitioned = initial;
  if (result.partitioned()) {
    const core::PartitionDecision& d = result.selected.front();
    std::size_t k = 0;
    while (k < result.evaluations.size() &&
           (result.evaluations[k].cluster_id != d.cluster_id ||
            result.evaluations[k].resource_set != d.core.resource_set)) {
      ++k;
    }
    if (k == result.evaluations.size()) return "winner is not among the evaluations";
    const core::ClusterEvaluation& ev = result.evaluations[k];
    if (opt.self_check) {
      ScopedSpan span(tracer, "analysis.validate");
      core::ValidateHwSelection(chain, {d.cluster_id}, sink);
    }

    asic::AsicCore synth;
    {
      ScopedSpan span(tracer, "asic.synthesize");
      const core::GenUse& gu = traffic->cluster_gen_use(d.cluster_id);
      std::unordered_set<ir::SymbolId> scalars;
      for (const auto* set : {&gu.gen, &gu.use}) {
        for (ir::SymbolId s : *set) {
          if (module.symbol(s).kind == ir::SymbolKind::kScalar) scalars.insert(s);
        }
      }
      synth = asic::Synthesize(ev.cluster_label, ev.resource_set, utils[k], lib,
                              2 + static_cast<int>(scalars.size()));
    }
    if (synth.cells != d.core.cells || synth.cycles != d.core.cycles) {
      return "synthesized core differs";
    }

    iss::HwPartition hw;
    hw.block_cluster.resize(module.num_functions());
    for (std::size_t f = 0; f < module.num_functions(); ++f) {
      hw.block_cluster[f].assign(
          module.function(static_cast<ir::FunctionId>(f)).blocks.size(), -1);
    }
    for (const auto& [fn, b] : chain.clusters[static_cast<std::size_t>(d.cluster_id)].blocks) {
      hw.block_cluster[static_cast<std::size_t>(fn)][static_cast<std::size_t>(b)] = 0;
    }
    hw.clusters.push_back(
        iss::HwPartition::ClusterIo{static_cast<std::uint32_t>(d.transfers.up_to_mem_words),
                                    static_cast<std::uint32_t>(d.transfers.asic_to_mem_words)});
    partitioned = Simulate(job, module, sl,
                           opt.partitioned_config.value_or(opt.initial_config), hw, tracer);
  }
  if (!SameRun(partitioned, result.partitioned_run)) return "partitioned ISS run differs";
  if (sink.has_errors()) return "self-check findings: " + sink.ToString();
  return "";
}

}  // namespace flowbench
