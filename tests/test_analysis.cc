// Whole-pipeline static analysis: the L2xx lint corpus (table-driven
// over tests/data/lint/), the diagnostic policy (-Wno / -Werror), and
// the L3xx-L5xx validators against hand-broken chains, schedules and
// netlists — including the acceptance case that a corrupted schedule
// is rejected, not silently synthesized.

#include "analysis/manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/codes.h"
#include "analysis/dataflow_lint.h"
#include "apps/app.h"
#include "asic/datapath.h"
#include "asic/netlist_check.h"
#include "asic/synthesis.h"
#include "asic/utilization.h"
#include "asic/verilog.h"
#include "common/diag.h"
#include "common/prng.h"
#include "core/cluster.h"
#include "core/dataflow.h"
#include "core/partitioner.h"
#include "core/partition_check.h"
#include "dsl/lower.h"
#include "fingerprint.h"
#include "power/tech_library.h"
#include "sched/dfg.h"
#include "sched/list_scheduler.h"
#include "sched/resource_set.h"
#include "sched/validate.h"

namespace lopass {
namespace {

std::string ReadData(const std::string& name) {
  const std::string path = std::string(LOPASS_TEST_DATA_DIR) + "/lint/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing corpus file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

analysis::LintReport Lint(const std::string& source,
                          const analysis::AnalysisManager& manager = {}) {
  return analysis::LintProgram(source, manager);
}

bool HasCode(const std::vector<Diagnostic>& diags, const std::string& code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

bool SinkHas(DiagnosticSink& sink, const std::string& code) {
  return HasCode(sink.diagnostics(), code);
}

// ---------------------------------------------------------------------
// L2xx corpus: one reproducer per code, each firing exactly its code
// with a real source location; each clean twin staying silent.

struct CorpusCase {
  const char* file;
  const char* code;
};

TEST(LintCorpus, EachReproducerFiresExactlyItsCode) {
  const CorpusCase cases[] = {
      {"l200_read_never_assigned.lp", "L200"},
      {"l201_dead_store.lp", "L201"},
      {"l202_unused_var.lp", "L202"},
      {"l203_unused_array.lp", "L203"},
      {"l204_unreachable.lp", "L204"},
      {"l205_constant_branch.lp", "L205"},
      {"l206_uncalled_function.lp", "L206"},
      {"l207_oob_index.lp", "L207"},
  };
  for (const CorpusCase& c : cases) {
    const analysis::LintReport r = Lint(ReadData(c.file));
    EXPECT_EQ(r.errors, 0u) << c.file;
    EXPECT_EQ(r.warnings, 1u) << c.file;
    ASSERT_TRUE(HasCode(r.diagnostics, c.code)) << c.file;
    for (const Diagnostic& d : r.diagnostics) {
      if (d.code != c.code) continue;
      EXPECT_GT(d.loc.line, 0) << c.file << " finding has no location";
    }
  }
}

TEST(LintCorpus, CleanTwinsStayClean) {
  const char* twins[] = {"l200_clean.lp", "l201_clean.lp", "l202_clean.lp",
                         "l203_clean.lp", "l204_clean.lp", "l205_clean.lp",
                         "l206_clean.lp", "l207_clean.lp"};
  for (const char* file : twins) {
    const analysis::LintReport r = Lint(ReadData(file));
    EXPECT_EQ(r.errors, 0u) << file;
    EXPECT_EQ(r.warnings, 0u) << file;
  }
}

// Every check line of the edge-operand file indexes a one-element array
// with (A op B) - R + 1, R being the run-time value of A op B: each one
// must fold to index 1 — no other value, and not "unknown".
TEST(LintCorpus, EdgeOperandsFoldToTheRuntimeValues) {
  const std::string src = ReadData("l207_edge_operands.lp");
  std::set<int> checks;
  std::istringstream lines(src);
  std::string text;
  for (int line = 1; std::getline(lines, text); ++line) {
    if (text.rfind("  out[", 0) == 0) checks.insert(line);
  }
  ASSERT_EQ(checks.size(), 1136u);  // 18 DSL operators x 64 pairs, less 16 zero divisors

  DiagnosticSink sink;
  analysis::RunDataflowLints(dsl::Compile(src).module, "main", sink);
  std::set<int> reported;
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.code, "L207") << "line " << d.loc.line << ": " << d.message;
    EXPECT_NE(d.message.find("constant index 1 is out of bounds"), std::string::npos)
        << "line " << d.loc.line << ": " << d.message;
    reported.insert(d.loc.line);
  }
  EXPECT_EQ(reported, checks);
}

TEST(LintCorpus, MultiDefectFileReportsEverythingInOnePass) {
  const analysis::LintReport r = Lint(ReadData("lint_multi.lp"));
  EXPECT_EQ(r.errors, 0u);
  for (const char* code : {"L200", "L201", "L202", "L203", "L205", "L206"}) {
    EXPECT_TRUE(HasCode(r.diagnostics, code)) << code << " missing from single pass";
  }
  // Policy sorts findings by source position.
  for (std::size_t i = 1; i < r.diagnostics.size(); ++i) {
    EXPECT_LE(r.diagnostics[i - 1].loc.line, r.diagnostics[i].loc.line);
  }
}

TEST(LintCorpus, SyntaxErrorSurfacesAsError) {
  const analysis::LintReport r = Lint("func main( {");
  EXPECT_GT(r.errors, 0u);
  EXPECT_FALSE(r.clean());
}

// A missing entry is the run's own error, and no lint that names the
// entry (L206 would call `main` uncalled) runs without one.
TEST(LintCorpus, MissingEntryIsTheOnlyFinding) {
  analysis::LintOptions options;
  options.entry = "nope";
  const analysis::LintReport r =
      analysis::LintProgram("func main() { return 0; }", {}, options);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, "analysis.pipeline");
  EXPECT_EQ(r.diagnostics[0].message, "no function named 'nope'");
  EXPECT_EQ(r.errors, 1u);
}

// ---------------------------------------------------------------------
// Diagnostic policy: suppression and promotion, exact and by class.

TEST(LintPolicy, DisableByClassSilencesTheCorpus) {
  analysis::AnalysisManager m;
  m.Disable("L2xx");
  const analysis::LintReport r = Lint(ReadData("lint_multi.lp"), m);
  EXPECT_EQ(r.warnings, 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(LintPolicy, PromoteAllTurnsWarningsIntoErrors) {
  analysis::AnalysisManager m;
  m.PromoteAllWarnings();
  const analysis::LintReport r = Lint(ReadData("lint_multi.lp"), m);
  EXPECT_EQ(r.warnings, 0u);
  EXPECT_EQ(r.errors, 6u);
  EXPECT_FALSE(r.clean());
}

TEST(LintPolicy, PromoteOneCodeLeavesTheRestWarnings) {
  analysis::AnalysisManager m;
  m.Promote("L205");
  const analysis::LintReport r = Lint(ReadData("lint_multi.lp"), m);
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(r.warnings, 5u);
}

// The report holds and counts every finding after policy, also past
// the 64 that lopass_cli prints: 70 L207 warnings, the loop's
// "infeasible" note and the L206 warning of a function never called.
TEST(LintPolicy, CountsFindingsPastTheListedCap) {
  const analysis::LintReport r = Lint(ReadData("findings_past_the_cap.lp"));
  EXPECT_EQ(r.warnings, 71u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.diagnostics.size(), 72u);

  analysis::AnalysisManager werror;
  werror.PromoteAllWarnings();
  const analysis::LintReport promoted = Lint(ReadData("findings_past_the_cap.lp"), werror);
  EXPECT_EQ(promoted.errors, 71u);
  EXPECT_FALSE(promoted.clean());

  // An error whose source position follows 64 and more warnings.
  analysis::AnalysisManager late_error;
  late_error.Promote("L206");
  const analysis::LintReport late = Lint(ReadData("findings_past_the_cap.lp"), late_error);
  EXPECT_EQ(late.errors, 1u);
  EXPECT_EQ(late.warnings, 70u);
  ASSERT_EQ(late.diagnostics.size(), 72u);
  EXPECT_EQ(late.diagnostics.back().code, "L206");
  EXPECT_EQ(late.diagnostics.back().severity, Severity::kError);

  // Suppressed findings are neither held nor counted.
  analysis::AnalysisManager quiet;
  quiet.Disable("L2xx");
  const analysis::LintReport rest = Lint(ReadData("findings_past_the_cap.lp"), quiet);
  EXPECT_EQ(rest.warnings, 0u);
  EXPECT_EQ(rest.diagnostics.size(), 1u);
}

// Lint holds at most kMaxDiagnostics findings; past the bound the
// report says how many it dropped, as an error, since its counts are
// then incomplete.
TEST(LintPolicy, BoundsTheFindingsItHolds) {
  const std::size_t stores = kMaxDiagnostics + 10;
  std::string source = "array s[1];\nfunc main() {\n";
  for (std::size_t i = 1; i <= stores; ++i) {
    source += "  s[" + std::to_string(i) + "] = 0;\n";
  }
  source += "  return 0;\n}\n";
  analysis::LintOptions options;
  options.partition_checks = false;
  const analysis::LintReport r = analysis::LintProgram(source, {}, options);
  EXPECT_EQ(r.warnings, kMaxDiagnostics);
  EXPECT_EQ(r.errors, 1u);
  ASSERT_EQ(r.diagnostics.size(), kMaxDiagnostics + 1);
  EXPECT_EQ(r.diagnostics.front().code, "diag.overflow");
  EXPECT_EQ(r.diagnostics.front().message,
            "10 finding(s) past the first " + std::to_string(kMaxDiagnostics) +
                " were dropped");
}

// No -Wno drops a sink's overflow error, and it leads whatever the
// other findings' locations, so an overflowing lint always exits 1.
TEST(LintPolicy, TheOverflowErrorOutlivesPolicy) {
  DiagnosticSink sink;
  sink.AddWarning("L300", "unlocated");
  for (std::size_t i = 0; i < kMaxDiagnostics; ++i) {
    sink.AddWarning("L207", "located", SourceLoc{static_cast<int>(i) + 1, 1});
  }
  analysis::AnalysisManager m;
  m.Disable(std::string(kOverflowCode));
  const std::vector<Diagnostic> out = m.Apply(sink.Take());
  ASSERT_EQ(out.size(), kMaxDiagnostics + 1);
  EXPECT_EQ(out[0].code, kOverflowCode);
  EXPECT_EQ(out[0].severity, Severity::kError);
  EXPECT_EQ(out[1].code, "L300");
}

TEST(LintPolicy, CodeRegistryCoversEveryFamily) {
  for (const char* code : {"L100", "L200", "L300", "L400", "L500"}) {
    EXPECT_NE(analysis::FindCode(code), nullptr) << code;
  }
  EXPECT_TRUE(analysis::CodeMatchesPattern("L204", "L2xx"));
  EXPECT_FALSE(analysis::CodeMatchesPattern("L304", "L2xx"));
}

// ---------------------------------------------------------------------
// L3xx: partition invariants against a hand-corrupted cluster chain.

const char* kLoopProgram = R"(
  var n;
  array a[64];
  var s;
  func main() {
    var i;
    s = 0;
    for (i = 0; i < n; i = i + 1) {
      s = s + a[i] * 3;
    }
    return s;
  })";

struct CompiledChain {
  dsl::LoweredProgram prog;
  core::ClusterChain chain;
};

CompiledChain MakeChain() {
  CompiledChain cc{dsl::Compile(kLoopProgram), {}};
  cc.chain = core::DecomposeIntoClusters(cc.prog.module, cc.prog.regions, "main");
  return cc;
}

int FirstHwCandidate(const core::ClusterChain& chain) {
  for (const core::Cluster& c : chain.clusters) {
    if (c.hw_candidate) return c.id;
  }
  return -1;
}

TEST(PartitionCheck, ValidChainPasses) {
  CompiledChain cc = MakeChain();
  DiagnosticSink sink;
  EXPECT_TRUE(core::ValidateClusterChain(cc.prog.module, cc.chain, sink));
  EXPECT_FALSE(sink.has_errors());
}

TEST(PartitionCheck, DanglingBlockRefIsL300) {
  CompiledChain cc = MakeChain();
  cc.chain.clusters[0].blocks.push_back({ir::FunctionId{0}, ir::BlockId{999}});
  DiagnosticSink sink;
  EXPECT_FALSE(core::ValidateClusterChain(cc.prog.module, cc.chain, sink));
  EXPECT_TRUE(SinkHas(sink, "L300"));
}

TEST(PartitionCheck, CorruptedClusterIdIsL301) {
  CompiledChain cc = MakeChain();
  cc.chain.clusters[0].id = 42;
  DiagnosticSink sink;
  EXPECT_FALSE(core::ValidateClusterChain(cc.prog.module, cc.chain, sink));
  EXPECT_TRUE(SinkHas(sink, "L301"));
}

TEST(PartitionCheck, OverlappingChainMembersAreL302) {
  CompiledChain cc = MakeChain();
  ASSERT_GE(cc.chain.chain_length, 2);
  // Give chain member 1 a block chain member 0 already covers.
  ASSERT_FALSE(cc.chain.clusters[0].blocks.empty());
  cc.chain.clusters[1].blocks.push_back(cc.chain.clusters[0].blocks.front());
  DiagnosticSink sink;
  EXPECT_FALSE(core::ValidateClusterChain(cc.prog.module, cc.chain, sink));
  EXPECT_TRUE(SinkHas(sink, "L302"));
}

TEST(PartitionCheck, StaleGenUseIsL303) {
  CompiledChain cc = MakeChain();
  const int hw = FirstHwCandidate(cc.chain);
  ASSERT_GE(hw, 0);
  const core::BusTrafficAnalyzer analyzer(cc.prog.module, cc.chain,
                                          power::TechLibrary::Cmos6(), 256 * 1024);
  // The analyzer cached gen/use for the original chain; empty the
  // cluster so an independent recomputation disagrees.
  cc.chain.clusters[static_cast<std::size_t>(hw)].blocks.clear();
  DiagnosticSink sink;
  EXPECT_FALSE(core::ValidateGenUse(cc.prog.module, cc.chain, analyzer, sink));
  EXPECT_TRUE(SinkHas(sink, "L303"));
}

TEST(PartitionCheck, AbsurdTransferEstimateIsL304) {
  CompiledChain cc = MakeChain();
  const int hw = FirstHwCandidate(cc.chain);
  ASSERT_GE(hw, 0);
  const core::Cluster& c = cc.chain.clusters[static_cast<std::size_t>(hw)];
  core::Transfers t;
  t.up_to_mem_words = 1'000'000;  // far beyond the module's static data
  DiagnosticSink sink;
  EXPECT_FALSE(core::ValidateTransfers(cc.prog.module, c, t, sink));
  EXPECT_TRUE(SinkHas(sink, "L304"));

  core::Transfers neg;
  neg.energy = Energy{-1.0};
  DiagnosticSink sink2;
  EXPECT_FALSE(core::ValidateTransfers(cc.prog.module, c, neg, sink2));
  EXPECT_TRUE(SinkHas(sink2, "L304"));
}

TEST(PartitionCheck, SelectingANonCandidateIsL305) {
  CompiledChain cc = MakeChain();
  int leaf = -1;
  for (const core::Cluster& c : cc.chain.clusters) {
    if (!c.hw_candidate) leaf = c.id;
  }
  ASSERT_GE(leaf, 0);
  DiagnosticSink sink;
  EXPECT_FALSE(core::ValidateHwSelection(cc.chain, {leaf}, sink));
  EXPECT_TRUE(SinkHas(sink, "L305"));
}

TEST(PartitionCheck, FlippedCandidateFlagIsL306) {
  CompiledChain cc = MakeChain();
  const int hw = FirstHwCandidate(cc.chain);
  ASSERT_GE(hw, 0);
  cc.chain.clusters[static_cast<std::size_t>(hw)].hw_candidate = false;
  DiagnosticSink sink;
  EXPECT_FALSE(core::ValidateClusterChain(cc.prog.module, cc.chain, sink));
  EXPECT_TRUE(SinkHas(sink, "L306"));
}

// ---------------------------------------------------------------------
// The whole-pipeline drive on a generated ~3K-op loop body: lint runs
// only the stages the flow runs, so a block this size lints in
// milliseconds (the ctest TIMEOUT catches a drive that grows
// super-linearly again).

TEST(LintDrive, GeneratedBigBlockLintsClean) {
  for (int mix = 0; mix < 3; ++mix) {
    Prng rng(static_cast<std::uint64_t>(mix) + 1000);
    const analysis::LintReport r = Lint(fingerprint::BigBlockSource(rng, 900, mix));
    EXPECT_EQ(r.errors, 0u) << "mix " << mix;
    for (const Diagnostic& d : r.diagnostics) {
      EXPECT_EQ(d.message.find("force-directed"), std::string::npos) << d.message;
    }
  }
}

// Lint and the flow share one candidate stage, so they agree on which
// cluster × set pairings are infeasible: every round-0 evaluation the
// flow rejects because its set lacks a resource is a lint note naming
// the same cluster, set and reason, and every lint infeasibility note
// on a pre-selected cluster is such a flow rejection.
TEST(LintDrive, AgreesWithTheFlowOnInfeasibility) {
  const std::regex note(R"(^cluster (\d+) \('.*'\) infeasible under set '([^']*)': (.*)$)");
  std::size_t matched = 0;
  for (const apps::Application& app : apps::AllApplications()) {
    analysis::LintOptions options;
    options.entry = app.options.entry;
    using Pairing = std::tuple<int, std::string, std::string>;  // cluster, set, reason
    std::set<Pairing> lint_infeasible;
    for (const Diagnostic& d : analysis::LintProgram(app.dsl_source, {}, options).diagnostics) {
      std::smatch m;
      if (d.code != "analysis.pipeline" || !std::regex_match(d.message, m, note)) continue;
      EXPECT_EQ(d.severity, Severity::kNote) << d.message;
      lint_infeasible.emplace(std::stoi(m[1].str()), m[2].str(), m[3].str());
    }

    const core::PartitionResult flow = apps::RunApplication(app, 1);
    std::set<int> preselected;
    std::set<Pairing> flow_infeasible;
    for (const core::ClusterEvaluation& ev : flow.evaluations) {
      preselected.insert(ev.cluster_id);
      if (!ev.feasible && ev.reject_reason.find("provides no resource for") != std::string::npos) {
        flow_infeasible.emplace(ev.cluster_id, ev.resource_set, ev.reject_reason);
      }
    }
    for (const Pairing& p : flow_infeasible) {
      EXPECT_EQ(lint_infeasible.count(p), 1u)
          << app.name << ": the flow rejects cluster " << std::get<0>(p) << " under set '"
          << std::get<1>(p) << "' (" << std::get<2>(p) << "), lint does not";
      ++matched;
    }
    for (const Pairing& p : lint_infeasible) {
      if (preselected.count(std::get<0>(p)) == 0) continue;
      EXPECT_EQ(flow_infeasible.count(p), 1u)
          << app.name << ": lint finds cluster " << std::get<0>(p) << " infeasible under set '"
          << std::get<1>(p) << "' (" << std::get<2>(p) << "), the flow does not";
    }
  }
  EXPECT_GT(matched, 0u);
}

// ---------------------------------------------------------------------
// L4xx: schedule validation, including the hand-broken acceptance case.

struct ScheduledFixture {
  dsl::LoweredProgram prog;
  sched::BlockDfg dfg;
  sched::BlockSchedule sched;
  sched::ResourceSet rs;
};

// Builds the largest block DFG of kLoopProgram (the loop body: loads,
// a multiply, adds, stores) and list-schedules it under the first
// designer set that can implement it.
ScheduledFixture MakeSchedule() {
  ScheduledFixture f{dsl::Compile(kLoopProgram), {}, {}, {}};
  const ir::Function& fn = f.prog.module.function(*f.prog.module.FindFunction("main"));
  std::size_t best = 0;
  for (const ir::BasicBlock& b : fn.blocks) {
    sched::BlockDfg d = sched::BuildBlockDfg(b);
    if (d.size() > best) {
      best = d.size();
      f.dfg = std::move(d);
    }
  }
  EXPECT_GE(f.dfg.size(), 3u);
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  for (const sched::ResourceSet& rs : sched::DefaultDesignerSets()) {
    try {
      f.sched = sched::ListSchedule(f.dfg, rs, lib);
      f.rs = rs;
      return f;
    } catch (const Error&) {
      continue;
    }
  }
  ADD_FAILURE() << "no designer set schedules the loop body";
  return f;
}

TEST(ScheduleCheck, ValidSchedulePasses) {
  ScheduledFixture f = MakeSchedule();
  DiagnosticSink sink;
  EXPECT_TRUE(sched::ValidateSchedule(f.dfg, f.sched, f.rs,
                                      power::TechLibrary::Cmos6(), sink));
  EXPECT_FALSE(sink.has_errors());
}

TEST(ScheduleCheck, HandBrokenScheduleIsRejected) {
  ScheduledFixture f = MakeSchedule();
  // Collapse every op onto step 0: precedence (and typically resource
  // occupancy) must be flagged — the acceptance case for L4xx.
  sched::BlockSchedule broken = f.sched;
  for (sched::ScheduledOp& op : broken.ops) op.step = 0;
  broken.num_steps = 1;
  DiagnosticSink sink;
  EXPECT_FALSE(sched::ValidateSchedule(f.dfg, broken, f.rs,
                                       power::TechLibrary::Cmos6(), sink));
  EXPECT_TRUE(SinkHas(sink, "L401"));
}

TEST(ScheduleCheck, MissingOpIsL400) {
  ScheduledFixture f = MakeSchedule();
  sched::BlockSchedule broken = f.sched;
  ASSERT_FALSE(broken.ops.empty());
  broken.ops.pop_back();
  DiagnosticSink sink;
  EXPECT_FALSE(sched::ValidateSchedule(f.dfg, broken, f.rs,
                                       power::TechLibrary::Cmos6(), sink));
  EXPECT_TRUE(SinkHas(sink, "L400"));
}

TEST(ScheduleCheck, WrongMakespanIsL403) {
  ScheduledFixture f = MakeSchedule();
  sched::BlockSchedule broken = f.sched;
  broken.num_steps += 3;
  DiagnosticSink sink;
  EXPECT_FALSE(sched::ValidateSchedule(f.dfg, broken, f.rs,
                                       power::TechLibrary::Cmos6(), sink));
  EXPECT_TRUE(SinkHas(sink, "L403"));
}

TEST(ScheduleCheck, ForgedResourceTypeIsL404) {
  ScheduledFixture f = MakeSchedule();
  sched::BlockSchedule broken = f.sched;
  // Claim an absurd latency for the first op; the library spec check
  // must catch the forgery.
  ASSERT_FALSE(broken.ops.empty());
  broken.ops.front().latency = 99;
  DiagnosticSink sink;
  EXPECT_FALSE(sched::ValidateSchedule(f.dfg, broken, f.rs,
                                       power::TechLibrary::Cmos6(), sink));
  EXPECT_TRUE(SinkHas(sink, "L404"));
}

// Four independent adds and two multiplies, scheduled by hand: the two
// multiplies (latency 2, at steps 0 and 1) overlap in step 1, and the
// adds collide pairwise in steps 2 and 3. Step order would report the
// multiplier first; L402 reports one finding per type, in type order,
// at that type's first oversubscribed step.
TEST(ScheduleCheck, OversubscribedTypesAreL402InTypeOrder) {
  sched::BlockDfg dfg;
  const ir::Opcode ops[] = {ir::Opcode::kAdd, ir::Opcode::kAdd, ir::Opcode::kMul,
                            ir::Opcode::kMul, ir::Opcode::kAdd, ir::Opcode::kAdd};
  const std::uint32_t steps[] = {2, 2, 0, 1, 3, 3};
  sched::BlockSchedule s;
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  for (std::size_t n = 0; n < std::size(ops); ++n) {
    dfg.nodes.emplace_back();
    dfg.nodes[n].instr_index = n;
    dfg.nodes[n].op = ops[n];
    const power::ResourceType type = ops[n] == ir::Opcode::kMul
                                         ? power::ResourceType::kMultiplier
                                         : power::ResourceType::kAdder;
    s.ops.push_back({n, steps[n], type, lib.spec(type).op_latency});
  }
  s.num_steps = 4;
  sched::ResourceSet rs;
  rs.name = "thin";
  rs.set(power::ResourceType::kAdder, 1).set(power::ResourceType::kMultiplier, 1);
  DiagnosticSink sink;
  EXPECT_FALSE(sched::ValidateSchedule(dfg, s, rs, lib, sink, false, "block 0"));
  std::vector<std::string> found;
  for (const Diagnostic& d : sink.diagnostics()) found.push_back(d.code + " " + d.message);
  EXPECT_EQ(found, (std::vector<std::string>{
                       "L402 block 0: 2 concurrent adder ops in control step 2 but the "
                       "resource set 'thin' provides 1",
                       "L402 block 0: 2 concurrent multiplier ops in control step 1 but the "
                       "resource set 'thin' provides 1"}));
}

// Fig. 4 binds ops in step order from buckets sized by num_steps: an op
// at or past num_steps is a malformed input, an Error, never a bucket
// array as long as the forged step.
TEST(ScheduleCheck, ForgedStepFailsTheBinding) {
  ScheduledFixture f = MakeSchedule();
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  for (const std::uint32_t step : {f.sched.num_steps, 0xffff'fff0u}) {
    sched::BlockSchedule broken = f.sched;
    broken.ops.back().step = step;
    const std::vector<asic::ScheduledBlock> blocks{{&f.dfg, &broken, 1}};
    try {
      asic::ComputeUtilization(blocks, f.rs, lib);
      ADD_FAILURE() << "step " << step << " was bound";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("past the schedule's"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------
// L5xx: structural netlist lint on a real datapath, then on sabotage.

struct NetlistFixture {
  ScheduledFixture sf;
  std::vector<asic::ScheduledBlock> blocks;
  asic::UtilizationResult util;
  asic::Datapath dp;
};

NetlistFixture MakeNetlist() {
  NetlistFixture n{MakeSchedule(), {}, {}, {}};
  n.blocks.push_back(asic::ScheduledBlock{&n.sf.dfg, &n.sf.sched, 1});
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  n.util = asic::ComputeUtilization(n.blocks, n.sf.rs, lib);
  n.dp = asic::BuildDatapath(n.blocks, n.util);
  return n;
}

TEST(NetlistCheck, ValidDatapathPasses) {
  NetlistFixture n = MakeNetlist();
  DiagnosticSink sink;
  EXPECT_TRUE(asic::ValidateDatapath(n.blocks, n.util, n.dp, sink));
  EXPECT_FALSE(sink.has_errors());
}

TEST(NetlistCheck, DuplicateUnitIsL502) {
  NetlistFixture n = MakeNetlist();
  ASSERT_FALSE(n.dp.units.empty());
  n.dp.units.push_back(n.dp.units.front());
  DiagnosticSink sink;
  EXPECT_FALSE(asic::ValidateDatapath(n.blocks, n.util, n.dp, sink));
  EXPECT_TRUE(SinkHas(sink, "L502"));
}

TEST(NetlistCheck, MissingUnitIsL503) {
  NetlistFixture n = MakeNetlist();
  ASSERT_FALSE(n.dp.units.empty());
  n.dp.units.pop_back();
  DiagnosticSink sink;
  EXPECT_FALSE(asic::ValidateDatapath(n.blocks, n.util, n.dp, sink));
  EXPECT_TRUE(SinkHas(sink, "L503"));
}

TEST(NetlistCheck, WrongFsmStateCountIsL505) {
  NetlistFixture n = MakeNetlist();
  n.dp.fsm_states += 2;
  DiagnosticSink sink;
  EXPECT_FALSE(asic::ValidateDatapath(n.blocks, n.util, n.dp, sink));
  EXPECT_TRUE(SinkHas(sink, "L505"));
}

TEST(NetlistCheck, ValidVerilogPassesAndTamperedWidthIsL501) {
  NetlistFixture n = MakeNetlist();
  const power::TechLibrary& lib = power::TechLibrary::Cmos6();
  const asic::AsicCore core =
      asic::Synthesize("loop", n.sf.rs.name, n.util, lib, 8, &n.dp);
  const std::string verilog = asic::EmitVerilog(core, n.dp);

  DiagnosticSink ok;
  EXPECT_TRUE(asic::ValidateVerilog(verilog, n.dp, ok));

  std::string tampered = verilog;
  const std::size_t pos = tampered.find("[31:0]");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 6, "[30:0]");
  DiagnosticSink bad;
  EXPECT_FALSE(asic::ValidateVerilog(tampered, n.dp, bad));
  EXPECT_TRUE(SinkHas(bad, "L501"));
}

}  // namespace
}  // namespace lopass
