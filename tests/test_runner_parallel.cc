// Concurrency suite for the exploration runner, written to run under
// ThreadSanitizer (the `tsan` preset): per-job thread-local fault
// scoping (two concurrent jobs must never observe each other's
// injected faults), the thread-safe journal writer under concurrent
// producers, and the headline identities — an N-worker sweep, whose
// workers claim applications from one atomic counter and fill per-job
// slots that the caller commits in job-queue order, runs each app's
// stage once, and renders a report and writes a journal byte-identical
// to a 1-worker run, clean, under chaos, and across a resume — and a
// failed journal append ends the sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "runner/explore.h"
#include "runner/journal.h"

namespace lopass::runner {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "lopass_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// --- per-job fault scoping (satellite: concurrent jobs must never ----
// --- observe each other's injected faults) ----------------------------

TEST(JobScopeTest, ShadowsTheGlobalSpecOnThisThreadOnly) {
  ASSERT_EQ(fault::CurrentSpec(), "");
  fault::JobScope scope("sim:1");
  EXPECT_EQ(fault::CurrentSpec(), "sim:1");
  std::string other_thread_spec = "unset";
  std::thread([&] { other_thread_spec = fault::CurrentSpec(); }).join();
  EXPECT_EQ(other_thread_spec, "") << "a JobScope must not leak across threads";
}

TEST(JobScopeTest, NestsAndRestores) {
  fault::JobScope outer("alloc");
  EXPECT_EQ(fault::CurrentSpec(), "alloc");
  {
    fault::JobScope inner("sim:2");
    EXPECT_EQ(fault::CurrentSpec(), "sim:2");
    // The inner scope has its own counters: first sim hit is hit 1.
    EXPECT_NO_THROW(fault::MaybeInject("sim"));
    EXPECT_THROW(fault::MaybeInject("sim"), InjectedFault);
  }
  EXPECT_EQ(fault::CurrentSpec(), "alloc");
  EXPECT_THROW(fault::MaybeInject("alloc"), InjectedFault);
}

TEST(JobScopeTest, OneShotArmFiresOncePerScope) {
  for (int round = 0; round < 3; ++round) {
    fault::JobScope scope("synth:2");
    EXPECT_NO_THROW(fault::MaybeInject("synth"));
    EXPECT_THROW(fault::MaybeInject("synth"), InjectedFault);
    EXPECT_NO_THROW(fault::MaybeInject("synth"));  // fired, stays disarmed
    EXPECT_EQ(fault::HitCount("synth"), 3u);
  }
}

TEST(JobScopeTest, ConcurrentJobsNeverObserveEachOthersFaults) {
  // Job A arms `sim` on every hit; job B arms `alloc:5` only. Both
  // hammer both sites in lockstep: A must see every sim hit fire and
  // no alloc fault; B the exact opposite, with its one-shot landing
  // precisely on its own 5th hit — regardless of interleaving.
  constexpr int kHits = 2000;
  std::barrier sync(2);
  std::atomic<int> a_sim_faults{0}, a_alloc_faults{0};
  std::atomic<int> b_sim_faults{0}, b_alloc_faults{0};
  std::atomic<std::uint64_t> b_fault_hit{0};

  std::thread job_a([&] {
    fault::JobScope scope("sim");
    sync.arrive_and_wait();  // overlap the hot loops
    for (int i = 0; i < kHits; ++i) {
      try {
        fault::MaybeInject("sim");
      } catch (const InjectedFault&) {
        a_sim_faults.fetch_add(1, std::memory_order_relaxed);
      }
      try {
        fault::MaybeInject("alloc");
      } catch (const InjectedFault&) {
        a_alloc_faults.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread job_b([&] {
    fault::JobScope scope("alloc:5");
    sync.arrive_and_wait();
    for (int i = 0; i < kHits; ++i) {
      try {
        fault::MaybeInject("sim");
      } catch (const InjectedFault&) {
        b_sim_faults.fetch_add(1, std::memory_order_relaxed);
      }
      try {
        fault::MaybeInject("alloc");
      } catch (const InjectedFault&) {
        b_alloc_faults.fetch_add(1, std::memory_order_relaxed);
        b_fault_hit.store(fault::HitCount("alloc"), std::memory_order_relaxed);
      }
    }
  });
  job_a.join();
  job_b.join();

  EXPECT_EQ(a_sim_faults.load(), kHits);
  EXPECT_EQ(a_alloc_faults.load(), 0) << "job A observed job B's fault";
  EXPECT_EQ(b_sim_faults.load(), 0) << "job B observed job A's fault";
  EXPECT_EQ(b_alloc_faults.load(), 1);
  EXPECT_EQ(b_fault_hit.load(), 5u) << "one-shot must land on B's own 5th hit";
  // Neither scope touched the global table.
  EXPECT_EQ(fault::CurrentSpec(), "");
  EXPECT_EQ(fault::HitCount("sim"), 0u);
  EXPECT_EQ(fault::HitCount("alloc"), 0u);
}

// --- thread-safe journal writer ---------------------------------------

TEST(ParallelJournalTest, ConcurrentProducersNeverTearRecords) {
  const std::string path = TempPath("journal_concurrent.jsonl");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  {
    JournalWriter writer(path, /*truncate=*/true);
    std::vector<std::thread> producers;
    producers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&writer, t] {
        for (int i = 0; i < kPerThread; ++i) {
          writer.Append("{\"thread\":" + std::to_string(t) + ",\"i\":" +
                        std::to_string(i) + "}");
        }
      });
    }
    for (std::thread& t : producers) t.join();
    EXPECT_EQ(writer.lines_written(), static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  const JournalLoad load = LoadJournal(path);
  EXPECT_TRUE(load.warnings.empty()) << "interleaved bytes corrupted a record";
  ASSERT_EQ(load.records.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Every record intact and each thread's records in its program order.
  std::vector<int> next_index(kThreads, 0);
  for (const std::string& record : load.records) {
    const auto thread = JsonIntField(record, "thread");
    const auto index = JsonIntField(record, "i");
    ASSERT_TRUE(thread.has_value() && index.has_value());
    const int t = static_cast<int>(*thread);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(*index, next_index[static_cast<std::size_t>(t)]++)
        << "thread " << t << " records out of order";
  }
  std::remove(path.c_str());
}

// --- the headline identities ------------------------------------------

// The four cheapest applications: a worker claims a whole app, so a
// sweep needs several apps to keep several workers busy at once.
ExploreOptions FourAppSweep() {
  ExploreOptions options;
  options.apps = {"3d", "engine", "trick", "digs"};
  options.scale = 1;
  return options;
}

TEST(ParallelExploreTest, ReportIsIdenticalAcrossWorkerCounts) {
  ExploreOptions sequential = FourAppSweep();
  const ExploreReport baseline = RunExplore(sequential);
  ASSERT_EQ(baseline.jobs.size(), 16u);
  for (const int jobs : {2, 4, 8}) {
    ExploreOptions parallel = FourAppSweep();
    parallel.jobs = jobs;
    const ExploreReport report = RunExplore(parallel);
    EXPECT_EQ(report.Render(), baseline.Render()) << "--jobs " << jobs;
    ASSERT_EQ(report.jobs.size(), baseline.jobs.size());
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      EXPECT_EQ(report.jobs[i].seed, baseline.jobs[i].seed) << "job " << i;
      EXPECT_EQ(report.jobs[i].attempts, baseline.jobs[i].attempts) << "job " << i;
    }
  }
}

TEST(ParallelExploreTest, JournalBytesAreIdenticalAcrossWorkerCounts) {
  // Clean, then under chaos: chaos journals record attempt counts and
  // each job's composed fault spec, so they pin that the schedule and
  // the retries depend on the job key alone, not on which worker ran
  // the job or when.
  const std::string seq_path = TempPath("parallel_journal_seq.jsonl");
  const std::string par_path = TempPath("parallel_journal_par.jsonl");
  for (const std::uint64_t chaos_seed : {0ull, 7ull, 99ull}) {
    ExploreOptions sequential = FourAppSweep();
    if (chaos_seed != 0) sequential.chaos_seed = chaos_seed;
    sequential.max_attempts = 4;
    sequential.journal_path = seq_path;
    const ExploreReport a = RunExplore(sequential);
    ExploreOptions parallel = sequential;
    parallel.journal_path = par_path;
    parallel.jobs = 8;
    const ExploreReport b = RunExplore(parallel);
    EXPECT_EQ(a.Render(), b.Render()) << "chaos seed " << chaos_seed;
    EXPECT_EQ(ReadFile(seq_path), ReadFile(par_path))
        << "completions must be journaled in job-queue order (chaos seed "
        << chaos_seed << ")";
  }
  std::remove(seq_path.c_str());
  std::remove(par_path.c_str());
}

TEST(ParallelExploreTest, EachAppStageAndPartitionRunsOncePerSweep) {
  // Six apps x four sets: one baseline per app, and one line-15
  // re-simulation per distinct partition — 15 jobs select a partition,
  // 7 of them distinct (MPG's rs-tiny, rs-small and rs-medium select
  // the same cluster with the same I/O words). A worker owns a whole
  // app, so the counts are exact at every worker count, and the
  // journal stays byte-identical.
  const std::string seq_path = TempPath("stats_seq.jsonl");
  const std::string par_path = TempPath("stats_par.jsonl");
  const auto expect_exact_counts = [](const ExploreReport& report, int jobs) {
    EXPECT_EQ(report.stats.baselines_built, 6) << "--jobs " << jobs;
    EXPECT_EQ(report.stats.resims_run, 7) << "--jobs " << jobs;
    EXPECT_EQ(report.stats.resims_reused, 8) << "--jobs " << jobs;
  };
  ExploreOptions sequential;
  sequential.journal_path = seq_path;
  const ExploreReport a = RunExplore(sequential);
  ASSERT_EQ(a.jobs.size(), 24u);
  expect_exact_counts(a, 1);
  for (const int jobs : {2, 4, 8}) {
    ExploreOptions parallel = sequential;
    parallel.journal_path = par_path;
    parallel.jobs = jobs;
    const ExploreReport b = RunExplore(parallel);
    expect_exact_counts(b, jobs);
    EXPECT_EQ(a.Render(), b.Render()) << "--jobs " << jobs;
    EXPECT_EQ(ReadFile(seq_path), ReadFile(par_path)) << "--jobs " << jobs;
  }
  std::remove(seq_path.c_str());
  std::remove(par_path.c_str());
}

TEST(ParallelExploreTest, ChaosUnderParallelismMatchesTheCleanSequentialRun) {
  const ExploreReport clean = RunExplore(FourAppSweep());
  for (const std::uint64_t chaos_seed : {7ull, 99ull}) {
    ExploreOptions options = FourAppSweep();
    options.jobs = 4;
    options.chaos_seed = chaos_seed;
    options.max_attempts = 4;  // room to absorb two one-shot faults
    const ExploreReport chaos = RunExplore(options);
    EXPECT_EQ(chaos.Render(), clean.Render()) << "chaos seed " << chaos_seed;
    bool scheduled = false;
    for (const Diagnostic& d : chaos.notes) scheduled |= d.code == "runner.chaos";
    EXPECT_TRUE(scheduled);
  }
}

TEST(ParallelExploreTest, ResumeOfAParallelSweepIsByteIdentical) {
  const std::string path = TempPath("parallel_resume.jsonl");
  ExploreOptions options = FourAppSweep();
  options.journal_path = path;
  options.jobs = 4;
  const ExploreReport full = RunExplore(options);
  ASSERT_EQ(full.jobs.size(), 16u);

  // Keep the first two committed lines — in-order commit guarantees
  // they are jobs 0 and 1 even though 4 workers raced — then resume
  // with a different worker count.
  std::istringstream journal(ReadFile(path));
  std::string line1, line2;
  std::getline(journal, line1);
  std::getline(journal, line2);
  WriteFile(path, line1 + "\n" + line2 + "\n");

  ExploreOptions resume = options;
  resume.resume = true;
  resume.jobs = 8;
  const ExploreReport resumed = RunExplore(resume);
  ASSERT_EQ(resumed.jobs.size(), 16u);
  EXPECT_TRUE(resumed.jobs[0].replayed);
  EXPECT_TRUE(resumed.jobs[1].replayed);
  EXPECT_FALSE(resumed.jobs[2].replayed);
  EXPECT_EQ(resumed.Render(), full.Render());
  EXPECT_EQ(LoadJournal(path).records.size(), 16u);
  std::remove(path.c_str());
}

TEST(ParallelExploreTest, AFailedJournalAppendEndsTheSweep) {
  // /dev/full opens fine and fails every write, so the first commit
  // throws. From then on workers must start no new job: only the jobs
  // already in flight reach the profiler, far fewer than the 24 of the
  // whole sweep. The armed-but-unreachable spec just counts the hits.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const int jobs : {1, 4}) {
    fault::ScopedSpec count_hits("profile:1000000");
    ExploreOptions options;
    options.journal_path = "/dev/full";
    options.jobs = jobs;
    EXPECT_THROW(RunExplore(options), Error) << "--jobs " << jobs;
    EXPECT_LT(fault::HitCount("profile"), 24u) << "--jobs " << jobs;
  }
}

}  // namespace
}  // namespace lopass::runner
