#include "analysis/manager.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <tuple>

#include "analysis/dataflow_lint.h"
#include "asic/datapath.h"
#include "asic/netlist_check.h"
#include "asic/synthesis.h"
#include "asic/utilization.h"
#include "asic/verilog.h"
#include "common/error.h"
#include "core/cluster.h"
#include "core/dataflow.h"
#include "core/partition_check.h"
#include "dsl/lower.h"
#include "iss/simulator.h"
#include "power/tech_library.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"
#include "sched/resource_set.h"
#include "sched/validate.h"

namespace lopass::analysis {

bool AnalysisManager::IsDisabled(std::string_view code) const {
  for (const std::string& p : disabled_) {
    if (CodeMatchesPattern(code, p)) return true;
  }
  return false;
}

bool AnalysisManager::IsPromoted(std::string_view code) const {
  if (promote_all_) return true;
  for (const std::string& p : promoted_) {
    if (CodeMatchesPattern(code, p)) return true;
  }
  return false;
}

std::vector<Diagnostic> AnalysisManager::Apply(std::vector<Diagnostic> diags) const {
  std::vector<Diagnostic> out;
  out.reserve(diags.size());
  for (Diagnostic& d : diags) {
    if (IsDisabled(d.code)) continue;
    if (d.severity == Severity::kWarning && IsPromoted(d.code)) {
      d.severity = Severity::kError;
    }
    out.push_back(std::move(d));
  }
  std::stable_sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.loc.line, a.loc.col, a.code) <
           std::tie(b.loc.line, b.loc.col, b.code);
  });
  return out;
}

namespace {

// Statically drives decomposition, scheduling and synthesis over every
// hardware-candidate cluster and runs the L3xx-L5xx validators on the
// artifacts. Mirrors the partitioner's evaluation loop, minus anything
// needing a workload (the validators check structure, not energy).
void DrivePartitionChecks(const dsl::LoweredProgram& prog, const std::string& entry,
                          DiagnosticSink& sink) {
  const ir::Module& module = prog.module;
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();

  core::ClusterChain chain;
  try {
    chain = core::DecomposeIntoClusters(module, prog.regions, entry);
  } catch (const Error& e) {
    sink.AddError("analysis.pipeline",
                  std::string("cluster decomposition failed: ") + e.what());
    return;
  }
  core::ValidateClusterChain(module, chain, sink);

  const core::BusTrafficAnalyzer traffic(module, chain, lib, iss::SystemConfig{}.memory_bytes);
  core::ValidateGenUse(module, chain, traffic, sink);

  const std::vector<sched::ResourceSet> sets = sched::DefaultDesignerSets();

  for (const core::Cluster& c : chain.clusters) {
    if (!c.hw_candidate) continue;
    std::ostringstream cl;
    cl << "cluster " << c.id << " ('" << c.label << "')";
    const std::string cluster_str = cl.str();

    core::ValidateTransfers(module, c, traffic.Compute(c, {}), sink);
    core::ValidateHwSelection(chain, {c.id}, sink);

    // Stable storage for the DFGs/schedules ScheduledBlock points into.
    std::deque<sched::BlockDfg> dfgs;
    for (const auto& [fn, bid] : c.blocks) {
      dfgs.push_back(sched::BuildBlockDfg(module.function(fn).block(bid)));
    }

    for (const sched::ResourceSet& rs : sets) {
      std::deque<sched::BlockSchedule> schedules;
      std::vector<asic::ScheduledBlock> blocks;
      bool feasible = true;
      for (std::size_t i = 0; i < dfgs.size(); ++i) {
        try {
          schedules.push_back(sched::ListSchedule(dfgs[i], rs, lib));
        } catch (const Error& e) {
          // An op with no resource in this set: the partitioner treats
          // the candidate as infeasible under this set, not as an error.
          sink.AddNote("analysis.pipeline", cluster_str + " infeasible under set '" +
                                                rs.name + "': " + e.what());
          feasible = false;
          break;
        }
        sched::ValidateSchedule(dfgs[i], schedules.back(), rs, lib, sink,
                                /*chaining_enabled=*/false,
                                cluster_str + ", block " + std::to_string(i) +
                                    ", set '" + rs.name + "'");
        blocks.push_back(asic::ScheduledBlock{&dfgs[i], &schedules.back(), 1});
      }
      if (!feasible || blocks.empty()) continue;

      try {
        const asic::UtilizationResult util = asic::ComputeUtilization(blocks, rs, lib);
        const asic::Datapath dp = asic::BuildDatapath(blocks, util);
        asic::ValidateDatapath(blocks, util, dp, sink,
                               cluster_str + ", set '" + rs.name + "'");
        const asic::AsicCore core =
            asic::Synthesize(c.label, rs.name, util, lib, 8, &dp);
        const std::string verilog = asic::EmitVerilog(core, dp);
        asic::ValidateVerilog(verilog, dp, sink, cluster_str + ", set '" + rs.name + "'");
      } catch (const Error& e) {
        sink.AddError("analysis.pipeline",
                      cluster_str + ": synthesis drive failed: " + e.what());
      }
    }
  }
}

}  // namespace

LintReport LintProgram(std::string_view source, const AnalysisManager& manager,
                       const LintOptions& options) {
  DiagnosticSink sink;

  auto finish = [&]() {
    LintReport report;
    report.diagnostics = manager.Apply(sink.Take());
    for (const Diagnostic& d : report.diagnostics) {
      if (d.severity == Severity::kError) ++report.errors;
      if (d.severity == Severity::kWarning) ++report.warnings;
    }
    return report;
  };

  // Frontend: parse (with recovery) + lower + sink-based IR verify, so
  // syntax errors, semantic errors and L1xx findings all land here.
  auto compiled = dsl::CompileToResult(source, options.unroll);
  for (const Diagnostic& d : compiled.diagnostics()) sink.Add(d);
  if (!compiled.ok()) return finish();

  const dsl::LoweredProgram& prog = compiled.value();
  RunDataflowLints(prog.module, options.entry, sink);

  if (options.partition_checks && prog.module.FindFunction(options.entry)) {
    DrivePartitionChecks(prog, options.entry, sink);
  }
  return finish();
}

}  // namespace lopass::analysis
