#pragma once

// Self-dispatching worker pool for the exploration runner
// (runner/explore.cc). N workers pull item indices from one atomic
// counter and run items concurrently, so evaluation order is
// nondeterministic. The runner's items are applications, each worker
// running all of an app's jobs. Determinism is the caller's job: the
// runner has each worker park every completion in that job's slot and
// commits the slots in job-queue order on its own thread, which is
// what makes an 8-worker sweep byte-identical to a 1-worker run
// regardless of completion interleaving. tests/test_runner_parallel.cc
// checks the pool's exactly-once dispatch under ThreadSanitizer.

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace lopass::runner {

// Spawns `workers` threads that drain item indices [0, items) from a
// shared atomic counter, calling `work(index)` for each. Construction
// starts the threads; Join (or destruction) waits for all of them.
// `work` is invoked concurrently and must synchronize any shared state
// it touches; it must not throw.
class WorkerPool {
 public:
  WorkerPool(int workers, std::size_t items, std::function<void(std::size_t)> work);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Join();

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t items_ = 0;
  std::function<void(std::size_t)> work_;
  std::vector<std::thread> threads_;
};

}  // namespace lopass::runner
