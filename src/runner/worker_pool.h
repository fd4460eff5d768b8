#pragma once

// Self-dispatching worker pool for the exploration runner
// (runner/explore.cc). N workers pull job indices from one atomic
// counter and evaluate jobs concurrently, so evaluation order is
// nondeterministic. Determinism is the caller's job: the runner has
// each worker park its completion in that job's slot and commits the
// slots in index order on its own thread, which is what makes an
// 8-worker sweep byte-identical to a 1-worker run regardless of
// completion interleaving. tests/test_runner_parallel.cc checks the
// pool's exactly-once dispatch under ThreadSanitizer.

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace lopass::runner {

// Spawns `workers` threads that drain job indices [0, jobs) from a
// shared atomic counter, calling `job(index)` for each. Construction
// starts the threads; Join (or destruction) waits for all of them.
// `job` is invoked concurrently and must synchronize any shared state
// it touches; it must not throw.
class WorkerPool {
 public:
  WorkerPool(int workers, std::size_t jobs, std::function<void(std::size_t)> job);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Join();

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t jobs_ = 0;
  std::function<void(std::size_t)> job_;
  std::vector<std::thread> threads_;
};

}  // namespace lopass::runner
