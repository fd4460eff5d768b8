#pragma once

// One sweep's per-application cache: each application's compiled
// program and its partitioner application stage (core::AppBaseline),
// shared by every job of the app within one RunExplore call. A miss
// computes outside the lock and the first result published wins; a
// concurrent duplicate is discarded, so no worker ever waits for
// another. A compile failure is stored — it is
// permanent, and every job of the app records it — but a baseline
// build that throws (cancelled, or a real error) is not, so the next
// job builds it afresh. The build masks fault injection (see
// core::Partitioner::BuildBaseline), so no cached baseline holds an
// injected failure either.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>

#include "apps/app.h"
#include "core/partitioner.h"
#include "dsl/lower.h"
#include "runner/explore.h"

namespace lopass::runner {

class AppCache {
 public:
  struct Compiled {
    std::optional<dsl::LoweredProgram> program;
    std::string error;  // set when the compile failed
  };

  std::shared_ptr<const Compiled> Compile(const apps::Application& app);

  // The app's baseline at workload `scale`; on a miss `partitioner`,
  // which must run over the app's published program, builds it.
  // Throws whatever the build throws.
  std::shared_ptr<const core::AppBaseline> Baseline(const apps::Application& app,
                                                    const core::Partitioner& partitioner,
                                                    int scale);

  // Drops the app's baseline once no job will ask for it again; its
  // counts stay in Stats().
  void Release(const std::string& app);

  ExploreStats Stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Compiled> compiled;
    std::shared_ptr<const core::AppBaseline> baseline;
  };

  template <class T>
  std::shared_ptr<const T> Find(std::shared_ptr<const T> Entry::*slot, const std::string& app) {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_[app].*slot;
  }

  template <class T>
  std::shared_ptr<const T> Publish(std::shared_ptr<const T> Entry::*slot, const std::string& app,
                                   std::type_identity_t<std::shared_ptr<const T>> fresh) {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const T>& stored = entries_[app].*slot;
    if (stored == nullptr) stored = std::move(fresh);
    return stored;
  }

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  ExploreStats released_;  // re-simulation counts of released baselines
  std::atomic<int> built_{0};
};

}  // namespace lopass::runner
