// Tests of the benchmark itself: input generation, op checks, spans and
// the names BENCHMARK.json publishes.

#include <gtest/gtest.h>

#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "apps/app.h"
#include "checks.h"
#include "dsl/lower.h"
#include "generator.h"
#include "replay.h"
#include "sched/dfg.h"
#include "trace.h"

namespace flowbench {
namespace {

TEST(Generator, ByteDeterministicPerSeed) {
  for (std::uint64_t seed : {0ull, 1ull, 977ull}) {
    EXPECT_EQ(GenerateBigBlock(PoolSeed(seed, 3)), GenerateBigBlock(PoolSeed(seed, 3)));
  }
  EXPECT_NE(GenerateBigBlock(PoolSeed(1, 0)), GenerateBigBlock(PoolSeed(1, 1)));
  EXPECT_NE(GenerateBigBlock(PoolSeed(1, 0)), GenerateBigBlock(PoolSeed(2, 0)));
}

// Every pool program's loop body is one block of about 3.2K scheduled ops.
TEST(Generator, OneBigBlockPerProgram) {
  for (int k = 0; k < 3; ++k) {
    const lopass::dsl::LoweredProgram p = lopass::dsl::Compile(GenerateBigBlock(PoolSeed(1, k)));
    std::size_t largest = 0;
    for (std::size_t f = 0; f < p.module.num_functions(); ++f) {
      for (const auto& block : p.module.function(static_cast<lopass::ir::FunctionId>(f)).blocks) {
        largest = std::max(largest, lopass::sched::BuildBlockDfg(block).size());
      }
    }
    EXPECT_GT(largest, 2800u);
    EXPECT_LT(largest, 3600u);
  }
}

SweepOutcome ExpectedOutcome(const std::string& report, const std::string& journal) {
  SweepOutcome o;
  o.report = report;
  o.jobs = kSweepJobs;
  o.journal = journal;
  return o;
}

TEST(SweepCheck, OneBytePerturbationFailsTheOp) {
  const std::string report = ReadFile(std::string(FLOWBENCH_EXPECTED) + "/sweep_report.txt");
  const std::string journal = ReadFile(std::string(FLOWBENCH_EXPECTED) + "/sweep_journal.jsonl");
  OpTally tally;
  tally.Record(SweepOpOk(ExpectedOutcome(report, journal), report, journal));
  EXPECT_EQ(tally.failed(), 0);

  int expected_failed = 0;
  for (const std::size_t at : {std::size_t{0}, report.size() / 2, report.size() - 1}) {
    std::string bad = report;
    bad[at] ^= 1;
    tally.Record(SweepOpOk(ExpectedOutcome(bad, journal), report, journal));
    EXPECT_EQ(tally.failed(), ++expected_failed) << "report byte " << at;
  }
  for (const std::size_t at : {std::size_t{0}, journal.size() / 2, journal.size() - 1}) {
    std::string bad = journal;
    bad[at] ^= 1;
    tally.Record(SweepOpOk(ExpectedOutcome(report, bad), report, journal));
    EXPECT_EQ(tally.failed(), ++expected_failed) << "journal byte " << at;
  }
  // An unjournaled sweep is judged on its report alone.
  SweepOutcome serial = ExpectedOutcome(report, journal);
  serial.journal.reset();
  EXPECT_TRUE(SweepOpOk(serial, report, std::nullopt));
  serial.degraded = 1;
  EXPECT_FALSE(SweepOpOk(serial, report, std::nullopt));
  EXPECT_EQ(tally.attempted(), 7);
  EXPECT_DOUBLE_EQ(tally.ok_ratio(), 1.0 / 7.0);
}

TEST(Trace, ChildSpansNestInsideTheirParent) {
  Tracer tracer;
  tracer.BeginOp(0);
  {
    ScopedSpan op(tracer, "runner.sweep");
    ScopedSpan child(tracer, "dsl.compile");
  }
  tracer.BeginOp(1);
  { ScopedSpan op(tracer, "runner.sweep"); }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_TRUE(SpansNest(tracer.spans()));

  std::vector<Span> bad = tracer.spans();
  bad[1].end_ns = bad[0].end_ns + 1;  // child outlives its parent
  EXPECT_FALSE(SpansNest(bad));
  bad = tracer.spans();
  bad[1].op = 1;  // child filed under another op
  EXPECT_FALSE(SpansNest(bad));
}

// A replayed job reproduces the partitioner's artifacts, and its stage
// spans nest inside the replay span.
TEST(Trace, ReplayMatchesTheColdRun) {
  const lopass::apps::Application app = lopass::apps::GetApplication("3d");
  Job job{app.dsl_source, app.options, app.workload(1)};
  job.options.resource_sets = {app.options.resource_sets[1]};
  Tracer tracer;
  std::optional<lopass::dsl::LoweredProgram> program;
  const lopass::core::PartitionResult result = RunColdJob(job, tracer, program);
  EXPECT_EQ(ReplayJob(job, *program, result, tracer), "");
  EXPECT_TRUE(SpansNest(tracer.spans()));
  std::set<std::string> names;
  for (const Span& s : tracer.spans()) names.insert(s.name);
  for (const char* name : {"runner.job", "dsl.compile", "core.partition", "core.replay",
                           "isa.codegen", "interp.run", "iss.run", "sched.list_schedule",
                           "asic.utilization", "asic.synthesize", "analysis.validate"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
  EXPECT_EQ(tracer.counters().at(0).at("core.evaluations"),
            static_cast<double>(result.evaluations.size()));
}

TEST(Names, UseOnlyThePortableAlphabet) {
  std::vector<std::string> names = WorkloadNames();
  for (const MetricSpec& m : EndToEndMetrics()) names.push_back(m.name);
  for (const MetricSpec& m : PerLayerMetrics()) names.push_back(m.name);
  for (const std::string& name : names) EXPECT_TRUE(ValidName(name)) << name;
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), names.size());
  EXPECT_FALSE(ValidName("op ms"));
  EXPECT_FALSE(ValidName("-lead"));
  EXPECT_FALSE(ValidName("sched/list"));

  // BENCHMARK.json publishes exactly these names, in this order.
  const std::string json = ReadFile(FLOWBENCH_JSON);
  const std::regex name_re("\"name\":\\s*\"([^\"]*)\"");
  std::vector<std::string> published;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    published.push_back((*it)[1]);
  }
  EXPECT_EQ(published, names);
}

}  // namespace
}  // namespace flowbench
