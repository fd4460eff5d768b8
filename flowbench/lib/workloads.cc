#include "workloads.h"

#include <optional>

#include "apps/app.h"
#include "checks.h"
#include "common/error.h"
#include "dsl/lower.h"
#include "generator.h"
#include "interp/interpreter.h"
#include "runner/explore.h"

namespace flowbench {
namespace {

using namespace lopass;

// The six-app x four-set explore sweep at scale 1. The report does not
// depend on the seed; the journal records each job's seed, derived
// from ExploreOptions::base_seed, which seed 0 leaves at its default.
class SweepWorkload : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, int jobs, bool journaled, std::string data_dir,
                std::string work_dir)
      : seed_(seed), data_dir_(std::move(data_dir)) {
    options_.jobs = jobs;
    options_.scale = 1;
    options_.base_seed ^= seed * 0xff51afd7ed558ccdull;
    if (journaled) options_.journal_path = work_dir + "/sweep-journal.jsonl";
  }

  void Setup() override {
    expected_report_ = ReadFile(data_dir_ + "/sweep_report.txt");
    if (journaled() && seed_ == 0) {
      expected_journal_ = ReadFile(data_dir_ + "/sweep_journal.jsonl");
    }
    apps_ = apps::AllApplications();
    Op(0);
    if (!CheckOp(0)) throw Error("warm-up sweep does not match the expected report");
    if (journaled() && !expected_journal_) expected_journal_ = last_.journal;
  }

  void Op(int) override { report_ = runner::RunExplore(options_); }

  bool CheckOp(int) override {
    std::optional<std::string> journal;
    if (journaled()) journal = ReadFile(options_.journal_path);
    last_ = OutcomeOf(report_, std::move(journal));
    return SweepOpOk(last_, expected_report_, expected_journal_);
  }

  std::vector<Job> Jobs(int) const override {
    std::vector<Job> jobs;
    for (const apps::Application& app : apps_) {
      for (const sched::ResourceSet& rs : app.options.resource_sets) {
        Job job{app.dsl_source, app.options, app.workload(options_.scale)};
        job.options.resource_sets = {rs};
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  bool CheckColdJob(int, std::size_t job, const core::PartitionResult& result) const override {
    if (job >= report_.jobs.size() || result.degraded()) return false;
    const runner::JobResult& row = report_.jobs[job];
    const core::AppRow cold = result.ToRow(row.app);
    return cold.saving_percent() == row.saving_percent &&
           cold.time_change_percent() == row.time_change_percent;
  }

  int threads() const override { return options_.jobs; }

 private:
  bool journaled() const { return !options_.journal_path.empty(); }

  std::uint64_t seed_;
  std::string data_dir_;
  runner::ExploreOptions options_;
  std::vector<apps::Application> apps_;
  std::string expected_report_;
  std::optional<std::string> expected_journal_;
  runner::ExploreReport report_;
  SweepOutcome last_;
};

// Compile + partition of generated big-block programs with the default
// options (all four designer sets in one run).
class BigBlockWorkload : public Workload {
 public:
  static constexpr int kPool = 8;

  explicit BigBlockWorkload(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    for (int k = 0; k < kPool; ++k) {
      Entry e;
      e.source = GenerateBigBlock(PoolSeed(seed_, k));
      const dsl::LoweredProgram program = dsl::Compile(e.source);
      interp::Interpreter interp(program.module);
      e.interp_return = interp.Run("main").return_value;
      core::Partitioner partitioner(program.module, program.regions);
      const core::PartitionResult reference = partitioner.Run(core::Workload{});
      e.decision = DecisionOf(reference);
      if (!BigBlockOpOk(reference, e.interp_return, e.decision)) {
        throw Error("big-block program " + std::to_string(k) + " disagrees with the interpreter");
      }
      pool_.push_back(std::move(e));
    }
    Op(0);
    if (!CheckOp(0)) throw Error("warm-up big-block op failed its check");
  }

  void Op(int index) override {
    const dsl::LoweredProgram program = dsl::Compile(entry(index).source);
    core::Partitioner partitioner(program.module, program.regions);
    result_ = partitioner.Run(core::Workload{});
  }

  bool CheckOp(int index) override {
    return BigBlockOpOk(result_, entry(index).interp_return, entry(index).decision);
  }

  std::vector<Job> Jobs(int index) const override {
    return {Job{entry(index).source, core::PartitionOptions{}, core::Workload{}}};
  }

  bool CheckColdJob(int index, std::size_t, const core::PartitionResult& result) const override {
    return BigBlockOpOk(result, entry(index).interp_return, entry(index).decision);
  }

  int pool() const override { return kPool; }

 private:
  struct Entry {
    std::string source;
    std::int64_t interp_return = 0;
    Decision decision;
  };

  const Entry& entry(int index) const { return pool_[static_cast<std::size_t>(index % kPool)]; }

  std::uint64_t seed_;
  std::vector<Entry> pool_;
  core::PartitionResult result_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       const std::string& data_dir,
                                       const std::string& work_dir) {
  if (name == "sweep-serial") {
    return std::make_unique<SweepWorkload>(seed, 1, false, data_dir, work_dir);
  }
  if (name == "sweep-journaled-j2") {
    return std::make_unique<SweepWorkload>(seed, 2, true, data_dir, work_dir);
  }
  if (name == "partition-bigblock") return std::make_unique<BigBlockWorkload>(seed);
  throw Error("unknown workload '" + name + "'");
}

}  // namespace flowbench
