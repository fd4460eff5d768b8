#include "analysis/manager.h"

#include <algorithm>
#include <tuple>

#include "analysis/dataflow_lint.h"
#include "common/error.h"
#include "core/cluster.h"
#include "core/dataflow.h"
#include "core/partition_check.h"
#include "core/partitioner.h"
#include "dsl/lower.h"
#include "iss/simulator.h"
#include "power/tech_library.h"
#include "sched/resource_set.h"

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
    // A sink's overflow error is no finding: no policy drops it.
    if (d.code != kOverflowCode && IsDisabled(d.code)) continue;
    if (d.severity == Severity::kWarning && IsPromoted(d.code)) {
      d.severity = Severity::kError;
    }
    out.push_back(std::move(d));
  }
  // It leads: the counts after it are incomplete.
  std::stable_sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    const bool a_rest = a.code != kOverflowCode;
    const bool b_rest = b.code != kOverflowCode;
    return std::tie(a_rest, a.loc.line, a.loc.col, a.code) <
           std::tie(b_rest, b.loc.line, b.loc.col, b.code);
  });
  return out;
}

namespace {

// Drives the flow's candidate stage (core/partitioner.h) statically,
// with the L3xx validators around it, under lint's own policy: every
// hardware candidate, every designer set, unit block weights, default
// scheduler options and no energy gate.
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

  for (const core::Cluster& c : chain.clusters) {
    if (!c.hw_candidate) continue;
    const std::string cluster_str = "cluster " + std::to_string(c.id) + " ('" + c.label + "')";

    core::ValidateTransfers(module, c, traffic.Compute(c, {}), sink);
    core::ValidateHwSelection(chain, {c.id}, sink);

    const std::vector<sched::BlockDfg> dfgs = core::BuildClusterDfgs(module, c);
    for (const sched::ResourceSet& rs : sched::DefaultDesignerSets()) {
      try {
        const core::ScheduledCandidate sc =
            core::ScheduleCandidate(c, dfgs, nullptr, rs, lib, {}, &sink, cluster_str);
        if (!sc.infeasible.empty()) {
          sink.AddNote("analysis.pipeline", cluster_str + " infeasible under set '" + rs.name +
                                                "': " + sc.infeasible);
        } else if (sc.util && !sc.blocks.empty()) {
          core::SynthesizeCandidate(module, traffic, c, rs.name, *sc.util, &sc.blocks, lib,
                                    &sink, cluster_str);
        }
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
  // Every later lint names the entry: without one, none of them runs.
  try {
    prog.module.EntryFunction(options.entry);
  } catch (const Error& e) {
    sink.AddError("analysis.pipeline", e.what());
    return finish();
  }
  RunDataflowLints(prog.module, options.entry, sink);

  if (options.partition_checks) DrivePartitionChecks(prog, options.entry, sink);
  return finish();
}

}  // namespace lopass::analysis
