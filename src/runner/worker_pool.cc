#include "runner/worker_pool.h"

#include <algorithm>

namespace lopass::runner {

WorkerPool::WorkerPool(int workers, std::size_t items,
                       std::function<void(std::size_t)> work)
    : items_(items), work_(std::move(work)) {
  const int n = std::max(1, workers);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      while (true) {
        const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
        if (index >= items_) return;
        work_(index);
      }
    });
  }
}

void WorkerPool::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

WorkerPool::~WorkerPool() { Join(); }

}  // namespace lopass::runner
