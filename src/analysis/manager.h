#pragma once

// AnalysisManager — pass orchestration and diagnostic policy for the
// static-analysis stack — plus LintProgram, the whole-pipeline driver
// behind `lopass lint`.
//
// LintProgram runs the pipeline statically (no workload, no
// simulation): frontend + IR verification (L1xx), dataflow lints
// (L2xx), cluster decomposition + partition invariants (L3xx), and the
// flow's own candidate stage (core::ScheduleCandidate with the L4xx
// schedule checks, core::SynthesizeCandidate with the L5xx datapath and
// Verilog checks). Unlike the flow it drives every hardware candidate,
// not only the pre-selected ones, under every designer set, with unit
// block weights, default scheduler options and no energy gate. A
// defect anywhere comes back as one diagnostic with a stable L-code.

#include <string>
#include <string_view>
#include <vector>

#include "analysis/codes.h"
#include "common/diag.h"

namespace lopass::analysis {

// Diagnostic policy: which codes are suppressed, which warnings are
// promoted to errors, and the final presentation order.
class AnalysisManager {
 public:
  // -Wno-CODE. Accepts exact codes ("L204") and classes ("L2xx").
  void Disable(std::string pattern) { disabled_.push_back(std::move(pattern)); }
  // -Werror / -Werror=CODE.
  void PromoteAllWarnings() { promote_all_ = true; }
  void Promote(std::string pattern) { promoted_.push_back(std::move(pattern)); }

  bool IsDisabled(std::string_view code) const;
  bool IsPromoted(std::string_view code) const;

  // Applies the policy: drops disabled codes, promotes warnings, and
  // sorts by (line, col, code) so reports are deterministic and follow
  // the source. A sink's overflow error is never dropped and leads.
  std::vector<Diagnostic> Apply(std::vector<Diagnostic> diags) const;

 private:
  std::vector<std::string> disabled_;
  std::vector<std::string> promoted_;
  bool promote_all_ = false;
};

struct LintOptions {
  std::string entry = "main";
  int unroll = 1;
  // Drive decomposition/scheduling/synthesis and run the L3xx-L5xx
  // validators. Off limits linting to the frontend + IR (L1xx/L2xx).
  bool partition_checks = true;
};

struct LintReport {
  // Every finding after policy, in source order; past kMaxDiagnostics
  // a diag.overflow error, first, says how many were dropped.
  std::vector<Diagnostic> diagnostics;
  std::size_t errors = 0;
  std::size_t warnings = 0;

  bool clean() const { return errors == 0; }
};

// Lints one DSL program through the whole pipeline. Never throws for
// bad input — every problem is a diagnostic.
LintReport LintProgram(std::string_view source, const AnalysisManager& manager,
                       const LintOptions& options = {});

}  // namespace lopass::analysis
