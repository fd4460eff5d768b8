// Deterministic fault-injection harness: arm each pipeline site in
// turn and prove the flow either isolates the failure (valid fallback
// partition + error diagnostic) or fails fast with InjectedFault —
// never crashes, never hangs, never silently returns a bogus result.

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/partitioner.h"
#include "dsl/lower.h"

namespace lopass::core {
namespace {

// A small FIR-style program (hot convolution + cold peak loop) whose
// hot cluster is profitably partitionable, so every pipeline stage
// (including synthesis and the partitioned re-simulation) runs.
constexpr const char* kApp = R"(
var n;
array sig[128];
array coef[16];
array out[128];
var peak;
func main() {
  var i; var j;
  for (i = 0; i < n - 16; i = i + 1) {
    var acc;
    acc = 0;
    for (j = 0; j < 16; j = j + 1) {
      acc = acc + sig[i + j] * coef[j];
    }
    out[i] = acc >> 8;
  }
  peak = 0;
  for (i = 0; i < n - 16; i = i + 1) {
    peak = max(peak, abs(out[i]));
  }
  return peak;
}
)";

Workload MakeWorkload() {
  Workload w;
  w.setup = [](DataTarget& t) {
    t.SetScalar("n", 96);
    std::vector<std::int64_t> sig, coef;
    for (int i = 0; i < 128; ++i) sig.push_back((i * 37) % 101 - 50);
    for (int i = 0; i < 16; ++i) coef.push_back(2 * i);
    t.FillArray("sig", sig);
    t.FillArray("coef", coef);
  };
  return w;
}

// Every result now leads with the kNote run-context header (PRNG seed
// + live fault spec); error-level assertions must look past it.
const Diagnostic* FirstError(const PartitionResult& r) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.severity == Severity::kError) return &d;
  }
  return nullptr;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = dsl::Compile(kApp);
    workload_ = MakeWorkload();
  }
  dsl::LoweredProgram program_;
  Workload workload_;
};

TEST_F(FaultInjectionTest, BaselinePartitionsAndIsClean) {
  ASSERT_EQ(fault::CurrentSpec(), "");
  Partitioner part(program_.module, program_.regions);
  const PartitionResult r = part.Run(workload_);
  EXPECT_TRUE(r.partitioned());
  EXPECT_FALSE(r.degraded());
  // A clean run carries no diagnostic at all.
  EXPECT_EQ(r.diagnostics.size(), 0u);
  EXPECT_EQ(r.partitioned_run.return_value, r.initial_run.return_value);
}

TEST_F(FaultInjectionTest, FatalSitesFailFastWithInjectedFault) {
  for (const char* site : {"profile", "sim"}) {
    fault::ScopedSpec spec(site);
    Partitioner part(program_.module, program_.regions);
    EXPECT_THROW((void)part.Run(workload_), InjectedFault) << site;
  }
}

TEST_F(FaultInjectionTest, ClusterDecompositionFaultFallsBackToAllSoftware) {
  fault::ScopedSpec spec("alloc");
  Partitioner part(program_.module, program_.regions);
  const PartitionResult r = part.Run(workload_);
  EXPECT_FALSE(r.partitioned());
  EXPECT_TRUE(r.degraded());
  const Diagnostic* err = FirstError(r);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, "partition.cluster");
  // The error names the fault that produced it.
  EXPECT_NE(err->message.find("injected fault at site 'alloc'"), std::string::npos);
  EXPECT_EQ(r.partitioned_run.return_value, r.initial_run.return_value);
}

TEST_F(FaultInjectionTest, IsolatedSitesProduceValidFallbacks) {
  struct Case {
    const char* site;
    const char* code;
  };
  for (const Case& c : {Case{"schedule", "partition.evaluate"},
                        Case{"estimate", "partition.evaluate"},
                        Case{"synth", "partition.synthesize"}}) {
    fault::ScopedSpec spec(c.site);
    Partitioner part(program_.module, program_.regions);
    PartitionResult r;
    ASSERT_NO_THROW(r = part.Run(workload_)) << c.site;
    // The failed candidate/core is skipped; the result is still a
    // valid partition — worst case all-software.
    EXPECT_FALSE(r.partitioned()) << c.site;
    EXPECT_TRUE(r.degraded()) << c.site;
    ASSERT_FALSE(r.diagnostics.empty()) << c.site;
    bool found = false;
    for (const Diagnostic& d : r.diagnostics) {
      if (d.severity != Severity::kError) continue;  // skip the context note
      if (d.code == c.code) found = true;
      EXPECT_NE(d.message.find("injected fault at site '" + std::string(c.site) + "'"),
                std::string::npos)
          << c.site;
      EXPECT_TRUE(fault::IsTransientMessage(d.message)) << c.site;
    }
    EXPECT_TRUE(found) << c.site << " missing code " << c.code;
    EXPECT_EQ(r.partitioned_run.return_value, r.initial_run.return_value) << c.site;
    EXPECT_EQ(r.asic_cycles, 0u) << c.site;
  }
}

TEST_F(FaultInjectionTest, ResimFaultRollsBackToInitialRun) {
  // sim:2 — the initial simulation succeeds, the partitioned
  // re-simulation is the second hit and fails; the partitioner must
  // roll the decision back instead of reporting half a system.
  fault::ScopedSpec spec("sim:2");
  Partitioner part(program_.module, program_.regions);
  PartitionResult r;
  ASSERT_NO_THROW(r = part.Run(workload_));
  EXPECT_FALSE(r.partitioned());
  EXPECT_TRUE(r.degraded());
  const Diagnostic* err = FirstError(r);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, "partition.resim");
  EXPECT_EQ(r.asic_cycles, 0u);
  EXPECT_EQ(r.partitioned_run.return_value, r.initial_run.return_value);
}

TEST_F(FaultInjectionTest, ParseSiteFailsCompileToResult) {
  fault::ScopedSpec spec("parse");
  Result<dsl::LoweredProgram> r = dsl::CompileToResult(kApp);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.diagnostics().empty());
  EXPECT_NE(r.diagnostics()[0].message.find("injected fault at site 'parse'"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, InjectionIsDeterministic) {
  auto run_once = [&]() {
    fault::ScopedSpec spec("schedule");
    Partitioner part(program_.module, program_.regions);
    return part.Run(workload_);
  };
  const PartitionResult a = run_once();
  const PartitionResult b = run_once();
  EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
  ASSERT_FALSE(a.diagnostics.empty());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
  }
  EXPECT_EQ(a.initial_run.return_value, b.initial_run.return_value);
}

TEST_F(FaultInjectionTest, ScopedSpecRestoresAndCounts) {
  EXPECT_EQ(fault::CurrentSpec(), "");
  {
    fault::ScopedSpec spec("schedule:3");
    EXPECT_EQ(fault::CurrentSpec(), "schedule:3");
    EXPECT_EQ(fault::HitCount("schedule"), 0u);
    fault::MaybeInject("schedule");  // hit 1: armed for hit 3 only
    fault::MaybeInject("schedule");  // hit 2
    EXPECT_THROW(fault::MaybeInject("schedule"), InjectedFault);
    fault::MaybeInject("schedule");  // hit 4: disarmed after firing
    EXPECT_EQ(fault::HitCount("schedule"), 4u);
  }
  EXPECT_EQ(fault::CurrentSpec(), "");
  fault::MaybeInject("schedule");  // disarmed: must be a no-op
}

}  // namespace
}  // namespace lopass::core
