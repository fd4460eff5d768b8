#include "common/fault.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/prng.h"

namespace lopass::fault {

namespace {

struct Arm {
  // 0 = fire on every hit; otherwise fire only on this 1-based hit.
  std::uint64_t nth = 0;
  bool fired = false;
};

// One spec's worth of arms and counters. The global table is shared
// (mutex-protected); a JobScope owns a private, thread-local one.
struct SiteTable {
  std::string spec;
  std::unordered_map<std::string, Arm> arms;
  std::unordered_map<std::string, std::uint64_t> hits;
};

struct GlobalState {
  std::mutex mu;
  SiteTable table;
};

GlobalState& GetState() {
  static GlobalState* s = new GlobalState();
  return *s;
}

std::atomic<bool> g_enabled{false};
std::once_flag g_env_once;

// Parses "site[:N],site[:N],..." into a fresh table. Malformed entries
// are ignored (fault injection must never take the process down).
void InstallInto(SiteTable& table, const std::string& spec) {
  table.spec = spec;
  table.arms.clear();
  table.hits.clear();
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    Arm arm;
    std::string site = entry;
    const auto colon = entry.find(':');
    if (colon != std::string::npos) {
      site = entry.substr(0, colon);
      const std::string nth = entry.substr(colon + 1);
      char* end = nullptr;
      const unsigned long long v = std::strtoull(nth.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v == 0) continue;
      arm.nth = v;
    }
    if (site.empty()) continue;
    table.arms[site] = arm;
  }
}

// Records the hit and throws if `site` is armed for it. The caller
// owns whatever synchronization the table needs.
void InjectFrom(SiteTable& table, const char* site) {
  const std::uint64_t hit = ++table.hits[site];
  auto it = table.arms.find(site);
  if (it == table.arms.end()) return;
  Arm& arm = it->second;
  if (arm.nth != 0 && (arm.fired || hit != arm.nth)) return;
  arm.fired = true;
  std::ostringstream os;
  os << "injected fault at site '" << site << "' (hit " << hit << ")";
  throw InjectedFault(os.str());
}

void EnsureEnvLoaded() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("LOPASS_FAULT_INJECT");
    if (env != nullptr && *env != '\0') {
      GlobalState& st = GetState();
      std::lock_guard<std::mutex> lock(st.mu);
      InstallInto(st.table, env);
      g_enabled.store(!st.table.arms.empty(), std::memory_order_release);
    }
  });
}

}  // namespace

// The active thread-local scope, if any (innermost when nested). Plain
// pointer: each thread reads and writes only its own copy.
struct JobScope::State {
  SiteTable table;
  State* previous = nullptr;
};

namespace {
thread_local JobScope::State* t_scope = nullptr;
}  // namespace

std::string CurrentSpec() {
  if (const JobScope::State* sc = t_scope) return sc->table.spec;
  EnsureEnvLoaded();
  GlobalState& st = GetState();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.table.spec;
}

bool IsTransientMessage(const std::string& message) {
  return message.find("injected fault at site") != std::string::npos;
}

void MaybeInject(const char* site) {
  if (JobScope::State* sc = t_scope) {
    InjectFrom(sc->table, site);  // thread-local: no lock needed
    return;
  }
  EnsureEnvLoaded();
  if (!g_enabled.load(std::memory_order_acquire)) return;
  GlobalState& st = GetState();
  std::lock_guard<std::mutex> lock(st.mu);
  InjectFrom(st.table, site);
}

namespace {

// Installs `spec` in the global table; empty disarms every site.
void SetSpec(const std::string& spec) {
  // Read the env spec now: left for the first MaybeInject, it would be
  // installed over this one.
  EnsureEnvLoaded();
  GlobalState& st = GetState();
  std::lock_guard<std::mutex> lock(st.mu);
  InstallInto(st.table, spec);
  g_enabled.store(!st.table.arms.empty(), std::memory_order_release);
}

}  // namespace

std::uint64_t HitCount(const char* site) {
  if (const JobScope::State* sc = t_scope) {
    auto it = sc->table.hits.find(site);
    return it == sc->table.hits.end() ? 0 : it->second;
  }
  GlobalState& st = GetState();
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.table.hits.find(site);
  return it == st.table.hits.end() ? 0 : it->second;
}

std::string ChaosSchedule(std::uint64_t seed, std::string_view job_key,
                          const std::vector<std::string_view>& sites) {
  if (sites.empty()) return "";
  // Folding the job key into the seed makes the schedule a pure
  // function of (seed, key) — the worker-count and evaluation-order
  // invariance the contract in the header promises.
  Prng rng(seed ^ Fnv1a(job_key));
  const int arms = 1 + static_cast<int>(rng.next_below(2));
  std::vector<std::string> drawn;
  for (int i = 0; i < arms; ++i) {
    const std::string site(sites[rng.next_below(sites.size())]);
    const std::uint64_t hit = 1 + rng.next_below(3);
    // A site drawn twice keeps only its later arm, the one InstallInto
    // keeps: the spec names no arm that cannot fire.
    std::erase_if(drawn, [&](const std::string& arm) { return arm.starts_with(site + ":"); });
    drawn.push_back(site + ":" + std::to_string(hit));
  }
  std::string spec;
  for (const std::string& arm : drawn) spec += (spec.empty() ? "" : ",") + arm;
  return spec;
}

ScopedSpec::ScopedSpec(const std::string& spec) {
  EnsureEnvLoaded();
  {
    GlobalState& st = GetState();
    std::lock_guard<std::mutex> lock(st.mu);
    previous_ = st.table.spec;
  }
  SetSpec(spec);
}

ScopedSpec::~ScopedSpec() { SetSpec(previous_); }

JobScope::JobScope(const std::string& spec) : state_(new State()) {
  InstallInto(state_->table, spec);
  state_->previous = t_scope;
  t_scope = state_.get();
}

JobScope::~JobScope() { t_scope = state_->previous; }

}  // namespace lopass::fault
