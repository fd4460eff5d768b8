#pragma once

// Deterministic fault injection for robustness testing.
//
// The pipeline is instrumented with named sites (parse, alloc, profile,
// sim, schedule, synth, estimate); each calls fault::MaybeInject(site)
// on entry. When the LOPASS_FAULT_INJECT environment variable — or a
// programmatic spec installed with ScopedSpec — arms a site,
// the call throws InjectedFault, which travels the same error paths a
// real failure would. Tests and the CLI fault-check harness use this to
// prove every stage degrades gracefully (diagnostic + fallback or a
// clean nonzero exit), never crashes or hangs.
//
// Spec grammar (comma-separated):
//   site        fire on every hit of `site`
//   site:N      fire only on the N-th hit (1-based), then disarm
// e.g. LOPASS_FAULT_INJECT=schedule        — every list schedule fails
//      LOPASS_FAULT_INJECT=synth:1,sim:3   — first synthesis and third
//                                            simulator run fail
//
// With no spec installed MaybeInject is a single relaxed atomic load.
//
// Concurrency: the global spec (ScopedSpec / LOPASS_FAULT_INJECT) and its
// hit counters are shared, mutex-protected state — safe to hit from
// any thread, but one-shot `site:N` arms are then consumed in whatever
// order threads reach them. Parallel drivers that need per-job
// determinism install a JobScope instead: a thread-local arm table and
// counter set that shadows the global spec on that thread only, so two
// concurrent jobs can never observe (or consume) each other's faults.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace lopass {

// Thrown by an armed fault site. Derives from Error so every isolation
// layer treats it like a real failure; its type is what marks it
// transient, so the candidate stage rethrows it instead of folding it
// into routine infeasibility, and the sweep runner retries it.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
};

namespace fault {

// The currently installed spec ("" when nothing is armed). Drivers
// record it next to their results so any failure report names the
// exact injection schedule that produced it.
std::string CurrentSpec();

// True when `message` came from an InjectedFault, the one transient
// failure class (a glitch that may not recur on retry). A thrown fault
// is told apart by its type; this serves failures an isolation layer
// already flattened into a Diagnostic (the partitioner stringifies the
// exception it caught). Matches the stable "injected fault at site"
// marker MaybeInject puts into every InjectedFault message.
bool IsTransientMessage(const std::string& message);

// Throws InjectedFault if `site` is armed for this hit. Every call
// increments the site's hit counter, armed or not.
void MaybeInject(const char* site);

// Hits recorded for `site` since the last spec was installed (or since
// LOPASS_FAULT_INJECT was read on first use).
std::uint64_t HitCount(const char* site);

// Derives one job's randomized chaos fault schedule: one or two
// one-shot `site:N` arms drawn from `sites`, in the spec grammar above.
// The draw depends on (seed, job_key) alone — never on worker count,
// thread identity, or evaluation order — so a chaos sweep composes
// deterministically with parallelism (`explore --jobs N`): every way
// of draining the same queue injects the same faults into the same
// jobs. One-shot arms are essential to the runners' convergence
// contract: the fault fires on a job's first attempt and is disarmed
// (inside that job's JobScope) before the retry, so a supervised chaos
// sweep must reproduce the clean run's exact report.
std::string ChaosSchedule(std::uint64_t seed, std::string_view job_key,
                          const std::vector<std::string_view>& sites);

// RAII spec installation for tests; restores the previous spec. An
// empty spec disarms everything. Installing a spec resets the hit
// counters. Global: every thread sees it, and counters are shared.
class ScopedSpec {
 public:
  explicit ScopedSpec(const std::string& spec);
  ~ScopedSpec();
  ScopedSpec(const ScopedSpec&) = delete;
  ScopedSpec& operator=(const ScopedSpec&) = delete;

 private:
  std::string previous_;
};

// RAII thread-local fault scope for one parallel job. While alive,
// MaybeInject / CurrentSpec / HitCount on the constructing
// thread use this scope's own arm table and hit counters exclusively;
// the global spec and every other thread are untouched. One-shot
// `site:N` arms therefore fire per job, never across jobs — the
// property the parallel exploration runner's chaos mode depends on.
// Scopes nest (the destructor restores the previous scope) and must be
// created and destroyed on the same thread. A ScopedSpec keeps
// addressing the global table even while a scope is active.
class JobScope {
 public:
  explicit JobScope(const std::string& spec);
  ~JobScope();
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

  struct State;  // opaque; defined in fault.cc

 private:
  std::unique_ptr<State> state_;
};

}  // namespace fault
}  // namespace lopass
