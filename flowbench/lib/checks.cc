#include "checks.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace flowbench {

SweepOutcome OutcomeOf(const lopass::runner::ExploreReport& report,
                       std::optional<std::string> journal) {
  SweepOutcome o;
  o.report = report.Render();
  o.jobs = static_cast<int>(report.jobs.size());
  o.degraded = report.degraded();
  o.failed = report.failed();
  o.journal = std::move(journal);
  return o;
}

bool SweepOpOk(const SweepOutcome& outcome, const std::string& expected_report,
               const std::optional<std::string>& expected_journal) {
  if (outcome.report != expected_report) return false;
  if (outcome.jobs != kSweepJobs || outcome.degraded != 0 || outcome.failed != 0) return false;
  if (expected_journal.has_value() && outcome.journal != expected_journal) return false;
  return true;
}

Decision DecisionOf(const lopass::core::PartitionResult& result) {
  Decision d;
  d.evaluations = result.evaluations.size();
  if (result.partitioned()) {
    d.cluster_id = result.selected.front().cluster_id;
    d.resource_set = result.selected.front().core.resource_set;
  }
  return d;
}

bool BigBlockOpOk(const lopass::core::PartitionResult& result, std::int64_t interp_return,
                  const Decision& expected) {
  return !result.degraded() && result.initial_run.return_value == interp_return &&
         result.partitioned_run.return_value == interp_return &&
         DecisionOf(result) == expected;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw lopass::Error("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"sweep-serial", "sweep-journaled-j2",
                                                 "partition-bigblock"};
  return names;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"ops_per_s", "1/s"},   {"op_ms_p50", "ms"},     {"setup_s", "s"},
      {"peak_rss_mb", "MB"},  {"ok_op_ratio", "ratio"}};
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"iss.run_ms", "ms"},
      {"iss.instrs", "count"},
      {"iss.minstr_per_s", "Minstr/s"},
      {"cache.accesses", "count"},
      {"cache.miss_rate", "ratio"},
      {"interp.run_ms", "ms"},
      {"interp.ops", "count"},
      {"runner.sweep_ms", "ms"},
      {"runner.cold_jobs_ms", "ms"},
      {"runner.sweep_over_cold", "ratio"},
      {"runner.parallel_efficiency", "ratio"},
      {"sched.list_schedule_ms", "ms"},
      {"sched.schedules", "count"},
      {"sched.dfg_ops", "count"},
      {"sched.us_per_op", "us"},
      {"asic.utilization_ms", "ms"},
      {"asic.synthesize_ms", "ms"},
      {"analysis.validate_ms", "ms"},
      {"dsl.compile_ms", "ms"},
      {"isa.codegen_ms", "ms"},
      {"core.partition_ms", "ms"},
      {"core.residual_ms", "ms"},
      {"core.evaluations", "count"},
      {"core.feasible_ratio", "ratio"},
      {"trace.overhead_ms", "ms"}};
  return metrics;
}

bool ValidName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace flowbench
