#pragma once

// Per-op correctness checks, the op tally behind ok_op_ratio, and the
// benchmark's metric and workload names.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/partitioner.h"
#include "runner/explore.h"

namespace flowbench {

inline constexpr int kSweepJobs = 24;  // six apps x four designer sets

// What one sweep op produced.
struct SweepOutcome {
  std::string report;  // ExploreReport::Render()
  int jobs = 0;
  int degraded = 0;
  int failed = 0;
  std::optional<std::string> journal;  // journal bytes, when journaled
};

SweepOutcome OutcomeOf(const lopass::runner::ExploreReport& report,
                       std::optional<std::string> journal = std::nullopt);

// True when the report bytes equal `expected_report`, all 24 jobs are
// ok, and (when `expected_journal` is set) the journal bytes equal it.
bool SweepOpOk(const SweepOutcome& outcome, const std::string& expected_report,
               const std::optional<std::string>& expected_journal);

// The partitioner's decision for one big-block program.
struct Decision {
  int cluster_id = -1;
  std::string resource_set;
  std::size_t evaluations = 0;
  bool operator==(const Decision&) const = default;
};

Decision DecisionOf(const lopass::core::PartitionResult& result);

// True when the run is not degraded, its initial and partitioned
// return values equal `interp_return`, and its decision is `expected`.
bool BigBlockOpOk(const lopass::core::PartitionResult& result, std::int64_t interp_return,
                  const Decision& expected);

// Counts attempted and failed ops.
class OpTally {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  double ok_ratio() const {
    return attempted_ == 0 ? 0.0 : static_cast<double>(attempted_ - failed_) / attempted_;
  }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

std::string ReadFile(const std::string& path);

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Names and units as they appear in BENCHMARK.json.
const std::vector<std::string>& WorkloadNames();
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Metric and workload names use only [A-Za-z0-9_.-] and start with a
// letter or digit.
bool ValidName(std::string_view name);

}  // namespace flowbench
