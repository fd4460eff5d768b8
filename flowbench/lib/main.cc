// flowbench: closed-loop benchmark of the Fig. 1 flow, one op in flight.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             --data DIR --work DIR
//
// Sets the workload up three times (setup_s is the median), then runs
// ops for S seconds. With --trace 0 it prints the end-to-end metrics,
// whose times are corrected for host speed (see reference.h);
// with --trace 1 it alternates an untraced op with a traced op plus a
// cold run and a stage replay of each of its jobs, prints the per-layer
// metrics and writes the spans to DIR/trace-NAME-seedN.json. The last
// stdout line is the result JSON; a human summary goes to stderr.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/error.h"
#include "reference.h"
#include "replay.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace flowbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "flowbench/expected";
  std::string work_dir = ".";
};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--data") {
      a.data_dir = value;
    } else if (flag == "--work") {
      a.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

struct Result {
  OpTally tally;
  std::map<std::string, double> metrics;
};

// Peak RSS of setup and ops, without the host-speed reference: the
// kernel's watermark is read before each reference run and reset after
// it. Where the watermark cannot be reset, the reference's (smaller)
// footprint may show.
class PeakRss {
 public:
  void Sample() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) peak_kb_ = std::max(peak_kb_, std::atof(line.c_str() + 6));
    }
  }
  static void Reset() { std::ofstream("/proc/self/clear_refs") << "5"; }
  double mb() const { return peak_kb_ / 1024.0; }

 private:
  double peak_kb_ = 0.0;
};

PeakRss g_rss;

// The host-speed reference, keeping it out of the peak RSS.
double Reference() {
  g_rss.Sample();
  const double ms = ReferenceMs();
  PeakRss::Reset();
  return ms;
}

// Runs op `index`, returning its wall time in ms, or nullopt when it threw.
std::optional<double> TimedOp(Workload& w, int index) {
  const Clock::time_point t0 = Clock::now();
  try {
    w.Op(index);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: op %d threw: %s\n", index, e.what());
    return std::nullopt;
  }
  return SecondsSince(t0) * 1e3;
}

// Ops are timed in groups of at least kGroupMs of op time, with the
// host-speed reference run between groups; each op's time is corrected
// by the mean of the references on either side of its group.
constexpr double kGroupMs = 500.0;

Result RunUntraced(Workload& w, const Args& a, double reference_ms) {
  Result r;
  std::vector<double> raw_ms, ms, group;
  double group_ms = 0.0;
  const auto close_group = [&] {
    const double after = Reference();
    const double scale = kNominalReferenceMs / ((reference_ms + after) / 2.0);
    for (double t : group) ms.push_back(t * scale);
    group.clear();
    group_ms = 0.0;
    reference_ms = after;
  };
  const Clock::time_point start = Clock::now();
  for (int i = 1; i == 1 || SecondsSince(start) < a.seconds; ++i) {
    const std::optional<double> t = TimedOp(w, i);
    r.tally.Record(t.has_value() && w.CheckOp(i));
    if (!t) continue;
    raw_ms.push_back(*t);
    group.push_back(*t);
    group_ms += *t;
    if (group_ms >= kGroupMs) close_group();
  }
  if (!group.empty()) close_group();

  double total_ms = 0.0;
  for (double t : ms) total_ms += t;
  r.metrics["ops_per_s"] = total_ms > 0.0 ? static_cast<double>(ms.size()) * 1e3 / total_ms : 0.0;
  r.metrics["op_ms_p50"] = Quantile(ms, 0.5);
  std::fprintf(stderr,
               "flowbench: %s seed %llu: %zu ops, corrected op_ms p50 %.3f, wall op_ms p50 %.3f",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed), ms.size(),
               Quantile(ms, 0.5), Quantile(raw_ms, 0.5));
  // A tail is reported only with at least ten samples beyond it.
  if (ms.size() >= 100) {
    std::fprintf(stderr, ", corrected p90 %.3f, wall p90 %.3f", Quantile(ms, 0.9),
                 Quantile(raw_ms, 0.9));
  }
  std::fprintf(stderr, "\n");
  return r;
}

// Counts that must repeat exactly for equal inputs.
const char* const kRepeatCounts[] = {"iss.instrs", "cache.accesses", "interp.ops",
                                     "sched.dfg_ops", "core.evaluations", "core.feasible"};

Result RunTraced(Workload& w, const Args& a) {
  Result r;
  Tracer tracer;
  std::vector<double> untraced_ms;
  const Clock::time_point start = Clock::now();
  int ops = 0;
  // Whole pool cycles, so per-op averages of the counts repeat exactly.
  do {
    const int i = ops++;
    const std::optional<double> t = TimedOp(w, i);
    r.tally.Record(t.has_value() && w.CheckOp(i));
    if (t) untraced_ms.push_back(*t);

    tracer.BeginOp(i);
    bool ok = true;
    try {
      ScopedSpan span(tracer, "runner.sweep");
      w.Op(i);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flowbench: traced op %d threw: %s\n", i, e.what());
      ok = false;
    }
    ok = ok && w.CheckOp(i);
    const std::vector<Job> jobs = w.Jobs(i);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      try {
        std::optional<lopass::dsl::LoweredProgram> program;
        const lopass::core::PartitionResult result = RunColdJob(jobs[k], tracer, program);
        const std::string why = ReplayJob(jobs[k], *program, result, tracer);
        if (!why.empty()) std::fprintf(stderr, "flowbench: op %d job %zu: %s\n", i, k, why.c_str());
        ok = ok && w.CheckColdJob(i, k, result) && why.empty();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "flowbench: op %d job %zu threw: %s\n", i, k, e.what());
        ok = false;
      }
    }
    if (i >= w.pool()) {
      const auto counts_of = [&](int op) {
        const auto it = tracer.counters().find(op);
        return it == tracer.counters().end() ? std::map<std::string, double>{} : it->second;
      };
      const std::map<std::string, double> now = counts_of(i), then = counts_of(i - w.pool());
      for (const char* name : kRepeatCounts) {
        if (now.count(name) != then.count(name) ||
            (now.count(name) != 0 && now.at(name) != then.at(name))) {
          std::fprintf(stderr, "flowbench: op %d: %s does not repeat\n", i, name);
          ok = false;
        }
      }
    }
    r.tally.Record(ok);
  } while (SecondsSince(start) < a.seconds || ops % w.pool() != 0);

  if (!SpansNest(tracer.spans())) {
    std::fprintf(stderr, "flowbench: spans do not nest\n");
    r.tally.Record(false);
  }

  const auto total = [&](const std::string& name) {
    double sum = 0.0;
    for (const auto& [op, ms] : tracer.TotalMs(name)) sum += ms;
    return sum;
  };
  const auto count = [&](const std::string& name) {
    double sum = 0.0;
    for (const auto& [op, counts] : tracer.counters()) {
      const auto it = counts.find(name);
      if (it != counts.end()) sum += it->second;
    }
    return sum;
  };
  const double n = ops;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::map<std::string, double>& m = r.metrics;
  const double sweep = total("runner.sweep");
  const double cold = total("runner.job");
  const double partition = total("core.partition");
  double staged = 0.0;
  for (const auto& [op, ms] : tracer.ChildrenMs("core.replay")) staged += ms;

  m["iss.run_ms"] = total("iss.run") / n;
  m["iss.instrs"] = count("iss.instrs") / n;
  m["iss.minstr_per_s"] = ratio(count("iss.instrs"), total("iss.run") * 1e3);
  m["cache.accesses"] = count("cache.accesses") / n;
  m["cache.miss_rate"] = ratio(count("cache.misses"), count("cache.accesses"));
  m["interp.run_ms"] = total("interp.run") / n;
  m["interp.ops"] = count("interp.ops") / n;
  m["runner.sweep_ms"] = sweep / n;
  m["runner.cold_jobs_ms"] = cold / n;
  m["runner.sweep_over_cold"] = ratio(sweep, cold);
  m["runner.parallel_efficiency"] = ratio(cold, w.threads() * sweep);
  m["sched.list_schedule_ms"] = total("sched.list_schedule") / n;
  m["sched.schedules"] = count("sched.schedules") / n;
  m["sched.dfg_ops"] = count("sched.dfg_ops") / n;
  m["sched.us_per_op"] = ratio(total("sched.list_schedule") * 1e3, count("sched.dfg_ops"));
  m["asic.utilization_ms"] = total("asic.utilization") / n;
  m["asic.synthesize_ms"] = total("asic.synthesize") / n;
  m["analysis.validate_ms"] = total("analysis.validate") / n;
  m["dsl.compile_ms"] = total("dsl.compile") / n;
  m["isa.codegen_ms"] = total("isa.codegen") / n;
  m["core.partition_ms"] = partition / n;
  m["core.residual_ms"] = (partition - staged) / n;
  m["core.evaluations"] = count("core.evaluations") / n;
  m["core.feasible_ratio"] = ratio(count("core.feasible"), count("core.evaluations"));

  std::vector<double> traced_ms;
  for (const auto& [op, ms] : tracer.TotalMs("runner.sweep")) traced_ms.push_back(ms);
  m["trace.overhead_ms"] = Quantile(traced_ms, 0.5) - Quantile(untraced_ms, 0.5);

  const std::string path = a.work_dir + "/trace-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".json";
  std::ofstream out(path, std::ios::binary);
  out << TraceJson(tracer);
  if (!out) throw lopass::Error("cannot write '" + path + "'");
  std::fprintf(stderr, "flowbench: %s seed %llu: %d traced ops, %zu spans -> %s\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed), ops,
               tracer.spans().size(), path.c_str());
  return r;
}

void PrintResult(const Result& r, const std::vector<MetricSpec>& specs) {
  std::string json = "{\"correct\": ";
  json += r.tally.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.tally.attempted());
  json += ", \"failed\": " + std::to_string(r.tally.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics.at(specs[i].name));
    json += (i ? ", \"" : "\"") + specs[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: flowbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--data DIR] [--work DIR]\n");
    return 2;
  }
  try {
    // Each setup is corrected by the references on either side of it.
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    double reference_ms = Reference();
    for (int r = 0; r < kSetups; ++r) {
      w.reset();
      const Clock::time_point t0 = Clock::now();
      w = MakeWorkload(a.workload, a.seed, a.data_dir, a.work_dir);
      w->Setup();
      const double wall_s = SecondsSince(t0);
      const double after = Reference();
      setup_s.push_back(wall_s * kNominalReferenceMs / ((reference_ms + after) / 2.0));
      reference_ms = after;
    }
    Result r = a.trace ? RunTraced(*w, a) : RunUntraced(*w, a, reference_ms);
    if (a.trace) {
      PrintResult(r, PerLayerMetrics());
    } else {
      r.metrics["setup_s"] = Quantile(setup_s, 0.5);
      g_rss.Sample();
      r.metrics["peak_rss_mb"] = g_rss.mb();
      r.metrics["ok_op_ratio"] = r.tally.ok_ratio();
      PrintResult(r, EndToEndMetrics());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
