// Differential fuzzing of the partition machinery: for randomly
// generated loop-bearing programs and randomized partitioner options,
// the partitioned system must compute exactly what the initial system
// computed (Eq. 3 moves work between cores, never changes it).

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/prng.h"
#include "core/partitioner.h"
#include "dsl/lower.h"
#include "program_gen.h"

namespace lopass::core {
namespace {

class PartitionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PartitionFuzz, PartitionedSystemIsFunctionallyIdentical) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 1442695040888963407ull + 11);
  const std::string src = GenerateProgram(rng);
  SCOPED_TRACE(src);

  const dsl::LoweredProgram p = dsl::Compile(src);

  const Workload w = GeneratedWorkload(rng.next_in(-100, 100));

  PartitionOptions opts;
  opts.max_hw_clusters = 1 + static_cast<int>(rng.next_below(2));
  opts.scheduler.enable_chaining = rng.next_below(2) == 1;
  opts.use_synergy = rng.next_below(2) == 1;
  opts.peephole = rng.next_below(2) == 1;
  if (rng.next_below(3) == 0) opts.strategy = Strategy::kPerformance;

  Partitioner part(p.module, p.regions, opts);
  const PartitionResult r = part.Run(w);
  EXPECT_EQ(r.initial_run.return_value, r.partitioned_run.return_value);
  // The initial run must itself match the interpreter-computed result
  // indirectly: re-running the partitioner is deterministic.
  Partitioner part2(p.module, p.regions, opts);
  const PartitionResult r2 = part2.Run(w);
  EXPECT_EQ(r.initial_run.return_value, r2.initial_run.return_value);
  EXPECT_EQ(r.partitioned() ? r.selected.front().cluster_id : -1,
            r2.partitioned() ? r2.selected.front().cluster_id : -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFuzz, ::testing::Range(0, 30));

// Fault-injection fuzzing: arm a random site on a random hit for each
// generated program. Whatever stage fails, the flow must either fail
// fast with InjectedFault or return a result that is still functionally
// identical to the unpartitioned system — never crash, hang, or report
// a partition whose simulation diverges.
TEST_P(PartitionFuzz, InjectedFaultsNeverCorruptResults) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ull + 7);
  const std::string src = GenerateProgram(rng);

  const Workload w = GeneratedWorkload(rng.next_in(-100, 100));

  PartitionOptions opts;
  opts.max_hw_clusters = 1 + static_cast<int>(rng.next_below(2));
  opts.use_synergy = rng.next_below(2) == 1;

  const dsl::LoweredProgram p = dsl::Compile(src);
  Partitioner part(p.module, p.regions, opts);
  const std::int64_t expected = part.Run(w).initial_run.return_value;

  const char* kSites[] = {"alloc", "profile", "sim", "schedule", "synth", "estimate"};
  const char* site = kSites[rng.next_below(6)];
  const std::int64_t nth = rng.next_in(1, 3);
  SCOPED_TRACE(std::string(site) + ":" + std::to_string(nth) + "\n" + src);
  fault::ScopedSpec spec(std::string(site) + ":" + std::to_string(nth));
  try {
    const PartitionResult r = part.Run(w);
    EXPECT_EQ(r.initial_run.return_value, expected);
    EXPECT_EQ(r.partitioned_run.return_value, expected);
    // Any recorded diagnostic must be a degradation.
    EXPECT_TRUE(r.diagnostics.empty() || r.degraded());
  } catch (const InjectedFault&) {
    // Fail-fast before a usable baseline exists is the other legal
    // outcome (profiling or the initial simulation was hit).
  }
}

}  // namespace
}  // namespace lopass::core
