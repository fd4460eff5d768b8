#include "runner/explore.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "apps/app.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/prng.h"
#include "core/partitioner.h"
#include "dsl/lower.h"
#include "runner/journal.h"

namespace lopass::runner {
namespace {

std::string SeedHex(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(seed));
  return buf;
}

// %.17g round-trips every IEEE double through strtod exactly, so a
// value replayed from the journal renders identically to the live one.
std::string DoubleField(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* StatusName(JobStatus s) {
  switch (s) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kDegraded:
      return "degraded";
    case JobStatus::kFailed:
      return "failed";
  }
  return "failed";
}

JobStatus StatusFromName(const std::string& name) {
  if (name == "ok") return JobStatus::kOk;
  if (name == "degraded") return JobStatus::kDegraded;
  return JobStatus::kFailed;
}

// Fault sites the chaos scheduler (fault::ChaosSchedule) may arm. All
// are reached inside Partitioner::Run, so a one-shot arm is guaranteed
// to be consumed by the first attempt (and therefore disarmed before
// the retry) — which is what lets a chaos sweep converge to the clean
// run's exact report.
const std::vector<std::string_view> kChaosSites = {"alloc", "profile", "sim",
                                                   "schedule", "synth", "estimate"};

std::string ComposeSpec(const std::string& base, const std::string& extra) {
  if (base.empty()) return extra;
  if (extra.empty()) return base;
  return base + "," + extra;
}

}  // namespace

std::string JobRecordJson(const JobResult& job) {
  std::ostringstream os;
  os << "{\"app\":\"" << JsonEscape(job.app) << "\""
     << ",\"rs\":\"" << JsonEscape(job.resource_set) << "\""
     << ",\"seed\":\"" << SeedHex(job.seed) << "\""
     << ",\"status\":\"" << StatusName(job.status) << "\""
     << ",\"attempts\":" << job.attempts
     << ",\"fault_spec\":\"" << JsonEscape(job.fault_spec) << "\""
     << ",\"initial_j\":" << DoubleField(job.initial_energy_j)
     << ",\"partitioned_j\":" << DoubleField(job.partitioned_energy_j)
     << ",\"saving_pct\":" << DoubleField(job.saving_percent)
     << ",\"time_pct\":" << DoubleField(job.time_change_percent)
     << ",\"errors\":" << job.errors
     << ",\"detail\":\"" << JsonEscape(job.detail) << "\"}";
  return os.str();
}

bool ParseJobRecord(const std::string& record, JobResult& job) {
  const auto app = JsonStringField(record, "app");
  const auto rs = JsonStringField(record, "rs");
  const auto seed = JsonStringField(record, "seed");
  const auto status = JsonStringField(record, "status");
  const auto attempts = JsonIntField(record, "attempts");
  const auto initial = JsonNumberField(record, "initial_j");
  const auto partitioned = JsonNumberField(record, "partitioned_j");
  const auto saving = JsonNumberField(record, "saving_pct");
  const auto time_pct = JsonNumberField(record, "time_pct");
  const auto errors = JsonIntField(record, "errors");
  const auto detail = JsonStringField(record, "detail");
  if (!app || !rs || !seed || !status || !attempts || !initial || !partitioned ||
      !saving || !time_pct || !errors || !detail) {
    return false;
  }
  job.app = *app;
  job.resource_set = *rs;
  job.seed = std::strtoull(seed->c_str(), nullptr, 16);
  job.status = StatusFromName(*status);
  job.attempts = static_cast<int>(*attempts);
  job.replayed = true;
  job.fault_spec = JsonStringField(record, "fault_spec").value_or("");
  job.initial_energy_j = *initial;
  job.partitioned_energy_j = *partitioned;
  job.saving_percent = *saving;
  job.time_change_percent = *time_pct;
  job.errors = *errors;
  job.detail = *detail;
  return true;
}

namespace {

// Deterministic SIGKILL switch for the crash/resume ctest: when
// LOPASS_EXPLORE_KILL_AFTER=N is set, the process kills itself (no
// cleanup, no flush beyond the journal's own per-record flush) right
// after the N-th journal append of this run. An honest crash, not a
// simulated one — it fires on the committing thread with workers still
// evaluating in flight. A value that is not wholly a non-negative
// integer (the empty string included) leaves the switch off.
void MaybeKillAfter(std::uint64_t appends) {
  static const std::int64_t kill_after = [] {
    std::int64_t n = -1;
    if (const char* env = std::getenv("LOPASS_EXPLORE_KILL_AFTER")) {
      const char* end = env + std::strlen(env);
      if (std::from_chars(env, end, n).ptr != end) n = -1;
    }
    return n;
  }();
  if (kill_after >= 0 && appends >= static_cast<std::uint64_t>(kill_after)) {
    std::raise(SIGKILL);
  }
}

// One application's share of the sweep, owned by the worker that
// claimed the app and freed when it is done with the app. The compile
// and the application stage (core::AppBaseline) happen on the app's
// first job that is not replayed. A compile failure is kept: it is
// permanent, and every job of the app records it. A build that throws
// (a fired deadline, a real error) leaves no baseline behind, so the
// app's next job builds afresh; the build runs with fault injection
// masked (see core::Partitioner::BuildBaseline), so no baseline holds
// an injected failure either.
struct AppStage {
  std::optional<dsl::LoweredProgram> program;
  std::optional<std::string> compile_error;
  std::shared_ptr<const core::AppBaseline> baseline;
  int baselines_built = 0;
};

// True when every error-severity diagnostic stems from an injected
// fault — the degradation would not recur on retry.
bool DegradedOnlyTransiently(const core::PartitionResult& result) {
  bool any = false;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::kError) continue;
    any = true;
    if (!fault::IsTransientMessage(d.message)) return false;
  }
  return any;
}

void FillFromResult(JobResult& job, const core::PartitionResult& result,
                    const std::string& app_name) {
  const core::AppRow row = result.ToRow(app_name);
  job.initial_energy_j = row.initial.total().joules;
  job.partitioned_energy_j = row.partitioned.total().joules;
  job.saving_percent = row.saving_percent();
  job.time_change_percent = row.time_change_percent();
  job.errors = 0;
  job.detail.clear();
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (job.errors == 0) job.detail = "[" + d.code + "] " + d.message;
    ++job.errors;
  }
  job.status = job.errors > 0 ? JobStatus::kDegraded : JobStatus::kOk;
}

// One queue entry: application × one of its designer resource sets.
// Pointers reach into the `apps` vector, which outlives the sweep.
struct JobSpec {
  const apps::Application* app = nullptr;
  const sched::ResourceSet* rs = nullptr;
  std::string key;  // "app/resource-set", the journal identity
};

// Everything one job hands back to the committing thread.
struct Completion {
  JobResult job;
  std::vector<Diagnostic> notes;
  // Anything the attempt loop does not catch escaping the job; rethrown
  // when the job's turn to commit comes, as a sequential loop would have.
  std::exception_ptr error;
};

// Runs one job end to end: compile lookup, chaos scope, the
// attempt/retry/breaker loop under the job's own deadline token.
// Called concurrently from workers, each on its own app's stage;
// touches no shared mutable state beyond, without chaos, the global
// fault table.
Completion EvaluateJob(const JobSpec& spec, const ExploreOptions& options, int scale,
                       AppStage& stage) {
  Completion c;
  JobResult& job = c.job;
  job.app = spec.app->name;
  job.resource_set = spec.rs->name;
  job.seed = options.base_seed ^ Fnv1a(spec.key);

  // A compile failure is permanent by construction, outside the
  // attempt loop: every job of the app is recorded failed without
  // sinking the sweep.
  if (!stage.program.has_value() && !stage.compile_error.has_value()) {
    try {
      stage.program.emplace(dsl::Compile(spec.app->dsl_source));
    } catch (const Error& e) {
      stage.compile_error = e.what();
    }
  }
  if (stage.compile_error.has_value()) {
    job.attempts = 1;
    job.status = JobStatus::kFailed;
    job.errors = 1;
    job.detail = *stage.compile_error;
    job.fault_spec = fault::CurrentSpec();
    c.notes.push_back(Diagnostic{
        Severity::kWarning, "runner.breaker", SourceLoc{},
        "job '" + spec.key + "': compile failed, circuit breaker open: " + job.detail});
    return c;
  }

  // Chaos faults compose with any operator-supplied spec inside a
  // thread-local JobScope, installed once per *job*: a one-shot arm
  // consumed by attempt 1 must stay disarmed for the retries, and a
  // concurrent job on another worker must never see (or consume) it.
  // The schedule is a pure function of (chaos seed, job key) — see
  // fault::ChaosSchedule — so it is identical no matter which worker
  // evaluates the job, or in what order.
  const std::string chaos_spec =
      options.chaos_seed ? fault::ChaosSchedule(*options.chaos_seed, spec.key, kChaosSites)
                         : std::string();
  std::unique_ptr<fault::JobScope> scoped;
  if (!chaos_spec.empty()) {
    scoped = std::make_unique<fault::JobScope>(
        ComposeSpec(fault::CurrentSpec(), chaos_spec));
    c.notes.push_back(Diagnostic{
        Severity::kNote, "runner.chaos", SourceLoc{},
        "job '" + spec.key + "': chaos fault schedule '" + chaos_spec + "'"});
  }
  job.fault_spec = fault::CurrentSpec();

  // One deadline for the whole job: every attempt runs under the same
  // token, so a deadline that fires between attempts opens the breaker
  // at the next attempt's first CheckCancel. A deadline <= 0 leaves the
  // token disarmed.
  CancelToken token;
  token.SetDeadlineAfterMs(options.deadline_ms);
  core::PartitionOptions run_options = spec.app->options;
  run_options.resource_sets = {*spec.rs};
  run_options.cancel = &token;
  const core::Partitioner partitioner(stage.program->module, stage.program->regions,
                                      run_options);

  // Each failure kind is routed by its type: an injected fault is
  // transient and retried; a deadline or a real error would fail the
  // same way again, so it opens the circuit breaker.
  const int max_attempts = std::max(1, options.max_attempts);
  std::string error;
  for (job.attempts = 1;; ++job.attempts) {
    const std::string attempt =
        "job '" + spec.key + "' attempt " + std::to_string(job.attempts);
    try {
      if (stage.baseline == nullptr) {
        stage.baseline = partitioner.BuildBaseline(spec.app->workload(scale));
        ++stage.baselines_built;
      }
      const core::PartitionResult result = partitioner.Run(*stage.baseline);
      if (job.attempts == max_attempts || !DegradedOnlyTransiently(result)) {
        FillFromResult(job, result, spec.app->name);
        return c;
      }
      c.notes.push_back(Diagnostic{Severity::kNote, "runner.retry", SourceLoc{},
                                   attempt + " degraded by a transient fault; retrying"});
      continue;
    } catch (const InjectedFault& e) {
      error = e.what();
      if (job.attempts == max_attempts) break;  // retries exhausted
      c.notes.push_back(Diagnostic{Severity::kNote, "runner.retry", SourceLoc{},
                                   attempt + " hit a transient fault; retrying: " + error});
      continue;
    } catch (const CancelledError& e) {
      error = e.what();
    } catch (const Error& e) {
      error = e.what();
    }
    c.notes.push_back(Diagnostic{
        Severity::kWarning, "runner.breaker", SourceLoc{},
        "job '" + spec.key + "': permanent failure, circuit breaker open: " + error});
    break;
  }

  // The job threw on every permitted attempt: degrade to the
  // all-software answer space — there is no result to report, so it is
  // recorded failed with the last error for the operator.
  job.status = JobStatus::kFailed;
  job.errors = 1;
  job.detail = error;
  return c;
}

}  // namespace

int ExploreReport::failed() const {
  return static_cast<int>(std::count_if(jobs.begin(), jobs.end(), [](const JobResult& j) {
    return j.status == JobStatus::kFailed;
  }));
}

int ExploreReport::degraded() const {
  return static_cast<int>(std::count_if(jobs.begin(), jobs.end(), [](const JobResult& j) {
    return j.status == JobStatus::kDegraded;
  }));
}

std::string ExploreReport::Render() const {
  std::ostringstream os;
  os << "exploration report (" << jobs.size() << " jobs)\n";
  os << "app      resource-set  status    saving%    dtime%  errors\n";
  for (const JobResult& job : jobs) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-8s %-13s %-9s %8.3f  %8.3f  %6lld\n",
                  job.app.c_str(), job.resource_set.c_str(), StatusName(job.status),
                  job.saving_percent, job.time_change_percent,
                  static_cast<long long>(job.errors));
    os << line;
  }
  os << "summary: " << jobs.size() << " jobs, "
     << (jobs.size() - static_cast<std::size_t>(degraded() + failed())) << " ok, "
     << degraded() << " degraded, " << failed() << " failed\n";
  return os.str();
}

ExploreReport RunExplore(const ExploreOptions& options) {
  ExploreReport report;

  std::vector<apps::Application> apps;
  if (options.apps.empty()) {
    apps = apps::AllApplications();
  } else {
    for (const std::string& name : options.apps) {
      apps.push_back(apps::GetApplication(name));  // throws on unknown
    }
  }

  const int scale = options.scale > 0 ? options.scale : 1;

  // The job queue: application × that application's designer resource
  // sets, in registry order (deterministic). An app's jobs are
  // contiguous: apps[a]'s are queue[first[a]] up to queue[first[a + 1]].
  std::vector<JobSpec> queue;
  std::vector<std::size_t> first;
  for (const apps::Application& app : apps) {
    first.push_back(queue.size());
    for (const sched::ResourceSet& rs : app.options.resource_sets) {
      queue.push_back(JobSpec{&app, &rs, app.name + "/" + rs.name});
    }
  }
  first.push_back(queue.size());

  // Replay the committed prefix on resume.
  std::unordered_map<std::string, JobResult> replayed;
  if (options.resume && !options.journal_path.empty()) {
    JournalLoad load = LoadJournal(options.journal_path);
    for (const std::string& warning : load.warnings) {
      report.notes.push_back(
          Diagnostic{Severity::kWarning, "runner.journal", SourceLoc{}, warning});
    }
    for (const std::string& record : load.records) {
      JobResult job;
      if (!ParseJobRecord(record, job)) {
        report.notes.push_back(Diagnostic{Severity::kWarning, "runner.journal",
                                          SourceLoc{},
                                          "unparseable record in journal '" +
                                              options.journal_path + "'; skipping"});
        continue;
      }
      const std::string key = job.app + "/" + job.resource_set;
      if (replayed.count(key) != 0) {
        report.notes.push_back(Diagnostic{
            Severity::kWarning, "runner.journal", SourceLoc{},
            "duplicate journal record for job '" + key + "'; keeping the first"});
        continue;
      }
      replayed.emplace(key, std::move(job));
    }
  }

  std::unique_ptr<JournalWriter> journal;
  if (!options.journal_path.empty()) {
    journal = std::make_unique<JournalWriter>(options.journal_path,
                                              /*truncate=*/!options.resume);
  }

  // The commit path — the single place order-sensitive effects happen,
  // always in job-queue order: append the report row and notes, write
  // the journal line (replayed jobs are already in the file), and give
  // the crash-test kill switch its deterministic trigger point.
  const auto commit = [&](Completion&& done) {
    report.jobs.push_back(std::move(done.job));
    for (Diagnostic& d : done.notes) report.notes.push_back(std::move(d));
    if (journal != nullptr && !report.jobs.back().replayed) {
      journal->Append(JobRecordJson(report.jobs.back()));
      MaybeKillAfter(journal->lines_written());
    }
  };

  // Replay hits skip evaluation; the map is read-only from here on,
  // so workers may consult it concurrently.
  const auto resolve = [&](const JobSpec& spec, AppStage& stage) -> Completion {
    const auto hit = replayed.find(spec.key);
    if (hit != replayed.end()) return Completion{hit->second, {}, nullptr};
    return EvaluateJob(spec, options, scale, stage);
  };

  // A worker claims one application at a time from `next_app` and runs
  // its jobs in queue order on that app's own stage, so no two workers
  // ever build the same baseline. It parks each completion in its job's
  // slot; this thread waits for slot 0, 1, 2, ... in turn and commits
  // it. What the workers share — the fault tables and the slots — is
  // synchronized; the report is touched only here. Once a commit
  // throws, workers start no new job and the error propagates after
  // the in-flight ones finish (a jthread joins on scope exit), so a
  // failed journal append ends the sweep for every --jobs value.
  std::vector<std::optional<Completion>> slots(queue.size());
  std::vector<ExploreStats> app_stats(apps.size());
  std::mutex mu;
  std::condition_variable filled;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> next_app{0};
  const auto work = [&] {
    for (std::size_t a = next_app++; a < apps.size(); a = next_app++) {
      AppStage stage;
      for (std::size_t index = first[a]; index < first[a + 1]; ++index) {
        if (stop.load(std::memory_order_relaxed)) break;
        Completion done;
        try {
          done = resolve(queue[index], stage);
        } catch (...) {
          done.error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu);
        slots[index] = std::move(done);
        filled.notify_one();
      }
      app_stats[a].baselines_built = stage.baselines_built;
      if (stage.baseline != nullptr) {
        app_stats[a].resims_run = stage.baseline->resims.runs();
        app_stats[a].resims_reused = stage.baseline->resims.reused();
      }
    }
  };
  std::vector<std::jthread> workers;
  const std::size_t worker_count =
      std::min(static_cast<std::size_t>(std::max(1, options.jobs)), apps.size());
  for (std::size_t w = 0; w < worker_count; ++w) workers.emplace_back(work);

  try {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      std::unique_lock<std::mutex> lock(mu);
      filled.wait(lock, [&] { return slots[i].has_value(); });
      Completion done = std::move(*slots[i]);
      slots[i].reset();
      lock.unlock();
      if (done.error) std::rethrow_exception(done.error);
      commit(std::move(done));
    }
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    throw;
  }
  workers.clear();  // joins, so app_stats is complete
  for (const ExploreStats& stats : app_stats) {
    report.stats.baselines_built += stats.baselines_built;
    report.stats.resims_run += stats.resims_run;
    report.stats.resims_reused += stats.resims_reused;
  }
  return report;
}

}  // namespace lopass::runner
