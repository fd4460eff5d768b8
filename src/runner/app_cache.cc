#include "runner/app_cache.h"

#include "common/error.h"

namespace lopass::runner {

std::shared_ptr<const AppCache::Compiled> AppCache::Compile(const apps::Application& app) {
  if (auto hit = Find(&Entry::compiled, app.name)) return hit;
  auto fresh = std::make_shared<Compiled>();
  try {
    fresh->program.emplace(dsl::Compile(app.dsl_source));
  } catch (const Error& e) {
    fresh->error = e.what();
  }
  return Publish(&Entry::compiled, app.name, std::move(fresh));
}

std::shared_ptr<const core::AppBaseline> AppCache::Baseline(const apps::Application& app,
                                                            const core::Partitioner& partitioner,
                                                            int scale) {
  if (auto hit = Find(&Entry::baseline, app.name)) return hit;
  std::shared_ptr<const core::AppBaseline> fresh = partitioner.BuildBaseline(app.workload(scale));
  built_.fetch_add(1, std::memory_order_relaxed);
  return Publish(&Entry::baseline, app.name, std::move(fresh));
}

void AppCache::Release(const std::string& app) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const core::AppBaseline>& baseline = entries_[app].baseline;
  if (baseline == nullptr) return;
  released_.resims_run += baseline->resims.runs();
  released_.resims_reused += baseline->resims.reused();
  baseline.reset();
}

ExploreStats AppCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExploreStats stats = released_;
  stats.baselines_built = built_.load(std::memory_order_relaxed);
  for (const auto& [name, entry] : entries_) {
    if (entry.baseline == nullptr) continue;
    stats.resims_run += entry.baseline->resims.runs();
    stats.resims_reused += entry.baseline->resims.reused();
  }
  return stats;
}

}  // namespace lopass::runner
