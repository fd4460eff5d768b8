#pragma once

// Supervised design-space exploration runner.
//
// Drives the application × resource-set candidate space as a job
// queue. Each job runs the full partitioning flow for one application
// restricted to one designer resource set, under supervision:
//
//  - every completed evaluation is appended to a checksummed JSONL
//    journal (runner/journal.h) — job seed, fault spec, attempt count,
//    objective-function inputs, diagnostics summary — and the journal
//    is flushed per record, so `--resume` after a SIGKILL replays the
//    committed prefix and re-runs only the rest, producing a report
//    and a journal byte-identical to an uninterrupted run's;
//  - each job gets one wall-clock deadline spanning every attempt,
//    enforced cooperatively via CancelToken (common/cancel.h), threaded
//    through the partitioner and the list scheduler;
//  - failures route by their type: an InjectedFault (common/fault.h)
//    is transient and retried at once — a fault site fires by hit
//    count, never by time, so waiting before a retry could not change
//    its outcome. A CancelledError (deadline) or any other Error is
//    permanent and trips the circuit breaker at once. A job whose last
//    attempt threw is recorded failed with the error text, one whose
//    last attempt degraded keeps whatever result survived (worst case
//    the all-software fallback); neither sinks the whole sweep;
//  - chaos mode (--chaos SEED) composes a randomized schedule of
//    one-shot fault injections with any live LOPASS_FAULT_INJECT spec
//    and asserts the supervised run still converges — because every
//    chaos fault is one-shot and transient, the retried sweep must
//    produce the same report as a clean run.
//
// The queue is drained by --jobs worker threads that claim application
// indices from one atomic counter; --jobs 1 is the same path on one
// worker.
// The unit of parallel work is the application: a worker claims one
// app, compiles it, builds its application stage (core::AppBaseline:
// initial run, decomposition, transfer energy, pre-selection) and runs
// the app's jobs in queue order on it. The compile and the baseline
// are that worker's own, so a sweep builds each app's baseline once
// with no lock, and the baseline memoizes the line-15 re-simulation,
// so each distinct partition runs once. A job still hits every fault
// site of the flow exactly once whether it built or reused the
// baseline (see core::Partitioner::BuildBaseline), and a build that
// throws leaves no baseline behind, so attempt counts and the journal
// do not depend on which job built it.
//
// Each job keeps its own CancelToken deadline,
// retry/breaker state and (under chaos) thread-local fault::JobScope,
// so concurrent jobs can never observe each other's injected faults.
// A worker parks each completion in its job's slot, and the calling
// thread commits the slots in job-queue order — report rows, journal
// appends and notes — so the report, the journal bytes, and the
// committed prefix a later --resume replays are all byte-identical for
// every worker count, regardless of completion order. A commit that
// throws (a failed journal append) ends the sweep: workers start no
// new job, and RunExplore rethrows once the in-flight ones finish.
//
// The one semantic caveat: a *global* fault spec (LOPASS_FAULT_INJECT /
// fault::ScopedSpec) with one-shot site:N arms is consumed in completion order
// under parallelism, which is inherently nondeterministic — per-job
// chaos schedules do not have this problem.
//
// All evaluations are deterministic (no wall-clock in any recorded
// field), which is what makes byte-identical resume testable.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/diag.h"

namespace lopass::runner {

struct ExploreOptions {
  // Journal path; empty runs unjournaled (no resume possible).
  std::string journal_path;
  // Replay committed records from the journal instead of truncating it.
  bool resume = false;
  // Applications to sweep; empty = all six.
  std::vector<std::string> apps;
  // Workload scale; <= 0 uses each app's test-friendly scale 1.
  int scale = 1;
  // Worker threads; each claims one application at a time and runs all
  // of its jobs, so at most one worker works on an app and no more
  // workers than apps are started. Values < 1 mean 1. The report and
  // journal are byte-identical for every value.
  int jobs = 1;
  // Per-job wall-clock deadline covering all attempts; <= 0 disables.
  std::int64_t deadline_ms = 0;
  // Attempts per job including the first (1 = no retry).
  int max_attempts = 3;
  // Chaos mode when set: derive a randomized one-shot fault schedule
  // per job from this seed.
  std::optional<std::uint64_t> chaos_seed;
  // Base seed XOR-folded with the job key into each job's recorded
  // seed, which is journaled only: nothing draws from it.
  std::uint64_t base_seed = 0x9e3779b97f4a7c15ull;
};

// Final status of one job. kFailed means even the circuit-breaker
// fallback produced nothing usable (the job threw on every attempt).
enum class JobStatus { kOk, kDegraded, kFailed };

struct JobResult {
  std::string app;
  std::string resource_set;  // designer set this job was restricted to
  std::uint64_t seed = 0;
  JobStatus status = JobStatus::kFailed;
  int attempts = 0;
  bool replayed = false;  // satisfied from the journal on resume
  // Fault spec live while the job ran (its JobScope's composed spec
  // under chaos), captured on the evaluating thread for the journal.
  std::string fault_spec;
  // Objective-function inputs / Table-1 metrics of the evaluation.
  double initial_energy_j = 0.0;
  double partitioned_energy_j = 0.0;
  double saving_percent = 0.0;
  double time_change_percent = 0.0;
  std::int64_t errors = 0;  // error-severity diagnostics in the result
  std::string detail;       // first error message, or ""
};

// Run counts of one sweep's per-app work, summed over the apps. Out of
// band, like ExploreReport::notes: never rendered or journaled.
struct ExploreStats {
  int baselines_built = 0;  // app stages built; a build that threw does not count
  int resims_run = 0;       // line-15 re-simulations run on the baselines
  int resims_reused = 0;    // line-15 re-simulations served from the memo
};

struct ExploreReport {
  std::vector<JobResult> jobs;
  // Supervision metadata — journal warnings, retry notices, circuit
  // breaker trips. Deliberately excluded from Render() so a resumed or
  // chaos run stays byte-identical to a clean one.
  std::vector<Diagnostic> notes;
  ExploreStats stats;

  int failed() const;
  int degraded() const;
  // Deterministic report over job outcomes only (stable ordering,
  // fixed float formatting, no timing, no attempt counts).
  std::string Render() const;
};

// The journal record schema for one job, shared by the runner's
// journaling/resume paths and the tests that craft synthetic journals.
// JobRecordJson is deterministic (fixed field order, %.17g doubles
// that round-trip through strtod, string escapes JsonStringField
// undoes), and every field depends on the job key alone — never on the
// worker count or evaluation order — which is what makes replayed and
// parallel journals byte-exact.
std::string JobRecordJson(const JobResult& job);
// Parses one record payload; false when a required field is missing or
// malformed. Sets job.replayed.
bool ParseJobRecord(const std::string& record, JobResult& job);

// Runs the sweep. Throws lopass::Error only for unusable setup (bad
// app name, unwritable journal) or a failed journal append; per-job
// failures land in the report.
ExploreReport RunExplore(const ExploreOptions& options);

}  // namespace lopass::runner
