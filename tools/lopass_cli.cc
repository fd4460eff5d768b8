// lopass_cli — command-line driver for the low-power partitioner.
//
// Compiles a behavioral DSL file, installs a workload described on the
// command line, runs the full partitioning flow (Fig. 5) and prints the
// Table-1 style report, the chosen ASIC core, and optionally the IR,
// the SL32 disassembly, or a CSV row.
//
// Exit codes:
//   0  the flow completed and the result is trustworthy
//   1  a pipeline error: bad DSL input, a runtime fault in profiling or
//      simulation, or a degraded flow (a cluster/synthesis/re-simulation
//      failure was isolated — a valid fallback report is still printed,
//      but the requested partition was not produced)
//   2  a usage error (unknown option, malformed value, missing operand)
//
// Usage:
//   lopass_cli lint FILE.lp [options]
//     --entry NAME            entry function (default: main)
//     --unroll K              unroll eligible for-loops K times
//     --app NAME              lint a bundled application instead of a file
//     --list-codes            print the L-code registry and exit
//     --no-partition-checks   frontend + IR lints only (L1xx/L2xx)
//     -Wno-CODE               suppress a code or class (e.g. -Wno-L2xx)
//     -Werror[=CODE]          promote warnings (all, or one code/class)
//   Runs the whole-pipeline static analysis (docs/static_analysis.md):
//   IR verification, dataflow lints, partition/schedule/netlist
//   validators. Exit 0 clean (warnings allowed), 1 errors, 2 usage.
//
//   lopass_cli explore [options]
//     --journal PATH          checksummed JSONL journal to write
//     --resume JOURNAL        resume: replay committed records, run the rest
//     --apps A,B,...          applications to sweep (default: all six)
//     --scale N               workload scale (default 1)
//     --jobs N                worker threads, each running one application
//                             at a time (default 1; report stays
//                             byte-identical)
//     --deadline-ms N         per-job wall-clock deadline covering all
//                             attempts (0 = none)
//     --retries N             attempts per job incl. the first (default 3)
//     --chaos SEED            chaos mode: randomized one-shot fault schedules
//     --seed S                base job seed, journaled only (seeds nothing)
//   Runs the supervised design-space exploration (docs/robustness.md):
//   every completed evaluation is journaled and flushed, so a killed
//   sweep resumed with --resume reprints a byte-identical report. Exit
//   0 all jobs ok, 1 any degraded/failed job, 2 usage.
//
//   lopass_cli FILE.lp [options]
//     --entry NAME            entry function (default: main)
//     --arg VALUE             append an entry-function argument
//     --set NAME=VALUE        set a global scalar before each run
//     --fill NAME=rand:N:LO:HI[:SEED]   fill a global array randomly
//     --fill NAME=ramp:N[:STEP]         fill with 0,STEP,2*STEP,...
//     --opt                   run the IR optimization passes first
//     --unroll K              unroll eligible for-loops K times
//     --chaining              enable operator chaining in the scheduler
//     --peephole              run the SL32 peephole optimizer
//     --strategy lp|perf      low-power (default) or performance-driven
//     --max-cells N           hard hardware cap in cells (0 = none)
//     --max-clusters N        number of clusters to map (default 1)
//     --hotspots              print the software hotspot report
//     --csv                   emit a CSV row instead of tables
//     --dump-ir               print the IR after compilation
//     --dump-asm              print the SL32 program
//     --emit-verilog          print structural Verilog for the chosen cores
//
// Example:
//   lopass_cli examples/dsl/fir.lp --set n=1024 --fill coeff=ramp:16:2
//     --fill signal=rand:1024:-128:127

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/codes.h"
#include "analysis/manager.h"
#include "apps/app.h"
#include "asic/verilog.h"
#include "common/diag.h"
#include "common/file.h"
#include "core/hotspots.h"
#include "core/partitioner.h"
#include "core/report.h"
#include "dsl/lower.h"
#include "ir/print.h"
#include "isa/codegen.h"
#include "opt/passes.h"
#include "runner/explore.h"

namespace {

using namespace lopass;

struct ScalarSet {
  std::string name;
  std::int64_t value;
};

[[noreturn]] void Usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: lopass_cli FILE.lp [--entry NAME] [--arg V] [--set N=V]\n"
               "       [--fill N=rand:CNT:LO:HI[:SEED] | N=ramp:CNT[:STEP]]\n"
               "       [--opt] [--unroll K] [--chaining] [--peephole]\n"
               "       [--strategy lp|perf] [--max-cells N] [--max-clusters N]\n"
               "       [--hotspots] [--csv] [--dump-ir] [--dump-asm] [--emit-verilog]\n"
               "   or: lopass_cli lint FILE.lp [--entry NAME] [--unroll K]\n"
               "       [--app NAME] [--list-codes] [--no-partition-checks]\n"
               "       [-Wno-CODE] [-Werror[=CODE]]\n"
               "   or: lopass_cli explore [--journal PATH | --resume JOURNAL]\n"
               "       [--apps A,B,...] [--scale N] [--jobs N] [--deadline-ms N]\n"
               "       [--retries N] [--chaos SEED] [--seed S]\n"
               "exit codes: 0 ok, 1 pipeline error, 2 usage error\n");
  std::exit(2);
}

// Whole-string integer parse; a malformed value is a usage error.
std::int64_t ParseIntArg(const std::string& value, const char* what) {
  std::int64_t out = 0;
  const char* first = value.c_str();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr != last) {
    Usage((std::string(what) + " wants an integer, got '" + value + "'").c_str());
  }
  return out;
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

// ParseIntArg range-checked in 64 bits before narrowing to int, so an
// out-of-range value is a usage error instead of wrapping around.
int ParseIntArgIn(const std::string& value, const char* what, std::int64_t lo, std::int64_t hi,
                  const char* range_message) {
  const std::int64_t out = ParseIntArg(value, what);
  if (out < lo || out > hi) Usage(range_message);
  return static_cast<int>(out);
}

double ParseDoubleArg(const std::string& value, const char* what) {
  try {
    std::size_t used = 0;
    const double out = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return out;
  } catch (const std::exception&) {
    Usage((std::string(what) + " wants a number, got '" + value + "'").c_str());
  }
}

// FILE:line:col: severity: message [code] (line omitted when unknown,
// code when empty).
void PrintDiagnostic(const std::string& path, const Diagnostic& d) {
  const std::string tag = d.code.empty() ? "" : " [" + d.code + "]";
  if (d.loc.valid()) {
    std::fprintf(stderr, "%s:%d:%d: %s: %s%s\n", path.c_str(), d.loc.line, d.loc.col,
                 SeverityName(d.severity), d.message.c_str(), tag.c_str());
  } else {
    std::fprintf(stderr, "%s: %s: %s%s\n", path.c_str(), SeverityName(d.severity),
                 d.message.c_str(), tag.c_str());
  }
}

// Prints at most 64 of `diags`, in order. Errors take their places
// first, so an exit 1 always prints an error. Returns how many were not
// printed.
std::size_t PrintFindings(const std::string& path, const std::vector<Diagnostic>& diags) {
  constexpr std::size_t kMaxPrinted = 64;
  std::size_t errors = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) ++errors;
  }
  std::size_t error_room = std::min(errors, kMaxPrinted);
  std::size_t other_room = kMaxPrinted - error_room;
  for (const Diagnostic& d : diags) {
    std::size_t& room = d.severity == Severity::kError ? error_room : other_room;
    if (room == 0) continue;
    --room;
    PrintDiagnostic(path, d);
  }
  return diags.size() - std::min(diags.size(), kMaxPrinted);
}

// Reads the DSL source at `path`; false, with the error printed, if it cannot.
bool ReadSource(const std::string& path, std::string& source) {
  try {
    if (ReadFile(path, source, "input")) return true;
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  return false;
}

// `lopass_cli lint` — the whole-pipeline static analysis driver.
// argv is shifted so argv[0] is the verb itself.
int RunLint(int argc, char** argv) {
  std::string path;
  std::string app_name;
  analysis::AnalysisManager manager;
  analysis::LintOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--entry") {
      options.entry = next();
    } else if (a == "--unroll") {
      options.unroll =
          ParseIntArgIn(next(), "--unroll", 1, 1024, "--unroll wants a factor in [1, 1024]");
    } else if (a == "--app") {
      app_name = next();
    } else if (a == "--no-partition-checks") {
      options.partition_checks = false;
    } else if (a == "--list-codes") {
      for (const analysis::CodeInfo& c : analysis::AllCodes()) {
        std::printf("%s  %-7s  %s\n", c.code,
                    c.default_severity == Severity::kWarning ? "warning" : "error",
                    c.summary);
      }
      return 0;
    } else if (a.rfind("-Wno-", 0) == 0) {
      const std::string code = a.substr(5);
      if (code.empty()) Usage("-Wno- needs a code (e.g. -Wno-L204, -Wno-L2xx)");
      manager.Disable(code);
    } else if (a == "-Werror") {
      manager.PromoteAllWarnings();
    } else if (a.rfind("-Werror=", 0) == 0) {
      const std::string code = a.substr(8);
      if (code.empty()) Usage("-Werror= needs a code");
      manager.Promote(code);
    } else if (!a.empty() && a[0] == '-') {
      Usage(("unknown lint option " + a).c_str());
    } else if (path.empty()) {
      path = a;
    } else {
      Usage(("unexpected operand " + a).c_str());
    }
  }
  if (path.empty() == app_name.empty()) {
    Usage("lint wants exactly one of FILE.lp or --app NAME");
  }

  std::string source;
  std::string display = path;
  if (!app_name.empty()) {
    try {
      const apps::Application app = apps::GetApplication(app_name);
      source = app.dsl_source;
      display = "app:" + app.name;
    } catch (const Error& e) {
      Usage(e.what());
    }
  } else if (!ReadSource(path, source)) {
    return 1;
  }

  try {
    const analysis::LintReport report = analysis::LintProgram(source, manager, options);
    // The summary counts every finding, printed or not.
    const std::size_t unprinted = PrintFindings(display, report.diagnostics);
    std::fprintf(stderr, "%s: %zu error(s), %zu warning(s)", display.c_str(), report.errors,
                 report.warnings);
    if (unprinted > 0) std::fprintf(stderr, "; %zu more not printed", unprinted);
    std::fputc('\n', stderr);
    return report.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 1;
  }
}

// `lopass_cli explore` — the supervised design-space exploration
// runner. argv is shifted so argv[0] is the verb itself.
int RunExplore(int argc, char** argv) {
  runner::ExploreOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--journal") {
      options.journal_path = next();
    } else if (a == "--resume") {
      options.journal_path = next();
      options.resume = true;
    } else if (a == "--apps") {
      std::stringstream list(next());
      std::string name;
      while (std::getline(list, name, ',')) {
        if (!name.empty()) options.apps.push_back(name);
      }
    } else if (a == "--scale") {
      options.scale = ParseIntArgIn(next(), "--scale", 1, kIntMax,
                                    "--scale wants a factor in [1, 2147483647]");
    } else if (a == "--jobs") {
      options.jobs =
          ParseIntArgIn(next(), "--jobs", 1, 256, "--jobs wants a worker count in [1, 256]");
    } else if (a == "--deadline-ms") {
      options.deadline_ms = ParseIntArg(next(), "--deadline-ms");
      if (options.deadline_ms < 0) Usage("--deadline-ms wants a non-negative value");
    } else if (a == "--retries") {
      options.max_attempts = ParseIntArgIn(
          next(), "--retries", 1, kIntMax, "--retries wants an attempt count in [1, 2147483647]");
    } else if (a == "--chaos") {
      options.chaos_seed = static_cast<std::uint64_t>(ParseIntArg(next(), "--chaos"));
    } else if (a == "--seed") {
      options.base_seed = static_cast<std::uint64_t>(ParseIntArg(next(), "--seed"));
    } else {
      Usage(("unknown explore option " + a).c_str());
    }
  }

  try {
    const runner::ExploreReport report = runner::RunExplore(options);
    // Supervision notes (journal warnings, retries, breaker trips) go
    // to stderr; the stdout report must stay byte-identical across
    // clean, resumed, and chaos runs.
    for (const Diagnostic& d : report.notes) PrintDiagnostic("explore", d);
    std::printf("%s", report.Render().c_str());
    return report.degraded() + report.failed() > 0 ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 1;
  }
}

constexpr const char* kVerbs[] = {"lint", "explore"};

// Levenshtein distance, for the unknown-verb hint.
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

// A bare word that names no existing file is a mistyped verb, not an
// input: report it as a usage error with a hint instead of falling
// through to the file pipeline's "cannot open" path.
[[noreturn]] void UnknownVerb(const std::string& word) {
  std::string hint;
  std::size_t best = 3;  // suggest only close matches
  for (const char* verb : kVerbs) {
    const std::size_t d = EditDistance(word, verb);
    if (d < best) {
      best = d;
      hint = verb;
    }
  }
  std::fprintf(stderr, "error: unknown verb '%s'", word.c_str());
  if (!hint.empty()) std::fprintf(stderr, " — did you mean '%s'?", hint.c_str());
  std::fprintf(stderr, "\nknown verbs:");
  for (const char* verb : kVerbs) std::fprintf(stderr, " %s", verb);
  std::fprintf(stderr, "; or pass a FILE.lp to run the partitioning pipeline\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  if (std::strcmp(argv[1], "lint") == 0) return RunLint(argc - 1, argv + 1);
  if (std::strcmp(argv[1], "explore") == 0) return RunExplore(argc - 1, argv + 1);
  const std::string path = argv[1];
  // Distinguish a mistyped verb from a missing input file: a bare word
  // (no path separator, no extension) that doesn't exist on disk gets
  // the did-you-mean treatment and the usage exit code.
  if (!path.empty() && path[0] != '-' &&
      path.find('/') == std::string::npos && path.find('.') == std::string::npos &&
      !std::ifstream(path).good()) {
    UnknownVerb(path);
  }

  core::Workload workload;
  std::vector<ScalarSet> sets;
  std::vector<core::FillSpec> fills;
  bool optimize = false, csv = false, dump_ir = false, dump_asm = false;
  bool hotspots = false, emit_verilog = false;
  int unroll = 1;
  core::PartitionOptions options;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--entry") {
      workload.entry = next();
    } else if (a == "--arg") {
      workload.args.push_back(ParseIntArg(next(), "--arg"));
    } else if (a == "--set") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos) Usage("--set needs NAME=VALUE");
      sets.push_back(
          {spec.substr(0, eq), ParseIntArg(spec.substr(eq + 1), "--set value")});
    } else if (a == "--fill") {
      Result<core::FillSpec> fill = core::ParseFillSpec(next());
      if (!fill.ok()) {
        for (const Diagnostic& d : fill.diagnostics()) PrintDiagnostic(path, d);
        Usage("invalid --fill spec");
      }
      fills.push_back(std::move(fill.value()));
    } else if (a == "--opt") {
      optimize = true;
    } else if (a == "--unroll") {
      unroll = ParseIntArgIn(next(), "--unroll", 1, 1024, "--unroll wants a factor in [1, 1024]");
    } else if (a == "--chaining") {
      options.scheduler.enable_chaining = true;
    } else if (a == "--peephole") {
      options.peephole = true;
    } else if (a == "--strategy") {
      const std::string s = next();
      if (s == "lp") options.strategy = core::Strategy::kLowPower;
      else if (s == "perf") options.strategy = core::Strategy::kPerformance;
      else Usage("--strategy must be lp or perf");
    } else if (a == "--max-cells") {
      options.max_cells = ParseDoubleArg(next(), "--max-cells");
      if (!std::isfinite(options.max_cells) || options.max_cells < 0.0) {
        Usage("--max-cells wants a finite, non-negative cell count (0 = none)");
      }
    } else if (a == "--max-clusters") {
      options.max_hw_clusters = ParseIntArgIn(next(), "--max-clusters", 1, kIntMax,
                                              "--max-clusters wants a positive count");
    } else if (a == "--csv") {
      csv = true;
    } else if (a == "--hotspots") {
      hotspots = true;
    } else if (a == "--emit-verilog") {
      emit_verilog = true;
      options.include_interconnect = true;  // synthesis keeps the datapath
    } else if (a == "--dump-ir") {
      dump_ir = true;
    } else if (a == "--dump-asm") {
      dump_asm = true;
    } else {
      Usage(("unknown option " + a).c_str());
    }
  }

  std::string source;
  if (!ReadSource(path, source)) return 1;
  auto print_findings = [&path](const std::vector<Diagnostic>& diags) {
    const std::size_t unprinted = PrintFindings(path, diags);
    if (unprinted > 0) std::fprintf(stderr, "%s: %zu more not printed\n", path.c_str(), unprinted);
  };

  try {
    Result<dsl::LoweredProgram> compiled = dsl::CompileToResult(source, unroll);
    print_findings(compiled.diagnostics());
    if (!compiled.ok()) return 1;
    dsl::LoweredProgram& program = compiled.value();

    if (optimize) {
      const opt::PassStats stats = opt::RunStandardPasses(program.module);
      if (!csv) std::printf("optimizer: %s\n", stats.ToString().c_str());
    }
    if (dump_ir) std::printf("%s\n", ir::ToString(program.module).c_str());
    if (dump_asm) {
      std::printf("%s\n", isa::ToString(isa::Generate(program.module)).c_str());
    }

    workload.setup = [&sets, &fills](core::DataTarget& t) {
      for (const ScalarSet& s : sets) t.SetScalar(s.name, s.value);
      for (const core::FillSpec& f : fills) t.FillArray(f.name, f.values);
    };

    core::Partitioner partitioner(program.module, program.regions, options);
    const core::PartitionResult result = partitioner.Run(workload);
    const core::AppRow row = result.ToRow(path);

    // Isolated per-cluster failures: the report below is still valid
    // (worst case the all-software baseline), but the flow is degraded
    // and the exit code must say so.
    print_findings(result.diagnostics);
    const int exit_code = result.degraded() ? 1 : 0;

    if (csv) {
      std::printf("%s", core::ToCsv({row}).c_str());
      return exit_code;
    }

    if (hotspots) {
      std::printf("%s\n",
                  core::RenderHotspots(
                      core::ComputeHotspots(result.chain, result.initial_run))
                      .c_str());
    }
    std::printf("evaluated %zu cluster/resource-set pairings\n",
                result.evaluations.size());
    if (emit_verilog) {
      for (const core::PartitionDecision& d : result.selected) {
        std::printf("%s\n", asic::EmitVerilog(d.core, *d.datapath).c_str());
      }
    }
    for (const core::PartitionDecision& d : result.selected) {
      std::printf("mapped: %-14s %-10s %.0f cells  U_R=%.3f  clock %.1f ns\n",
                  d.cluster_label.c_str(), d.core.resource_set.c_str(), d.core.cells,
                  d.core.utilization, d.core.clock_period.nanoseconds());
    }
    if (!result.partitioned()) std::printf("no profitable partition found\n");
    std::printf("%s", core::RenderTable1({row}).ToString().c_str());
    std::printf("energy saving %s%%   execution-time change %s%%\n",
                FormatPercent(row.saving_percent()).c_str(),
                FormatPercent(row.time_change_percent()).c_str());
    return exit_code;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 1;
  }
  return 0;
}
