#pragma once

// Cooperative cancellation with wall-clock deadlines.
//
// A CancelToken is the handle the exploration runner (src/runner) hands
// to a long-running pipeline stage: the owner arms it with Cancel() or
// a deadline, and the stage polls Check() at its loop heads — the list
// scheduler per control step, the partitioner between stages and
// candidates. An expired token throws CancelledError, which is not a
// lopass::Error: no `catch (const Error&)` isolation layer can absorb
// it, so a deadline aborts the whole run and reaches the driver that
// armed the token (the runner's circuit breaker).
//
// Polling is cheap (one relaxed atomic load; a steady_clock read only
// when a deadline is set), so a stage may check every iteration without
// measurable cost. A default-constructed token never fires, and every
// threaded-through call site accepts nullptr meaning "not cancellable",
// so non-runner callers pay nothing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lopass {

// Thrown by CancelToken::Check once the token is cancelled or its
// deadline has passed. Not an Error, so it passes every isolation
// layer; and not a transient fault: the same job would hit the same
// deadline again, so the runner opens its circuit breaker instead of
// retrying.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what) : std::runtime_error(what) {}
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  // Arms the token unconditionally (idempotent, thread-safe).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  // Arms the token to fire once `ms` of wall-clock time have elapsed
  // from now. Zero or negative disables the deadline.
  void SetDeadlineAfterMs(std::int64_t ms) {
    if (ms <= 0) {
      has_deadline_.store(false, std::memory_order_relaxed);
      return;
    }
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            (Clock::now() + std::chrono::milliseconds(ms)).time_since_epoch())
            .count(),
        std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_relaxed);
  }

  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (!has_deadline_.load(std::memory_order_relaxed)) return false;
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    return now_ns >= deadline_ns_.load(std::memory_order_relaxed);
  }

  // Throws CancelledError naming `where` (e.g. "list schedule") if the
  // token has fired. The message is what lands in diagnostics, so keep
  // the site names human-readable.
  void Check(const char* where) const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<std::int64_t> deadline_ns_{0};
};

// Convenience for call sites holding a possibly-null token pointer.
inline void CheckCancel(const CancelToken* token, const char* where) {
  if (token != nullptr) token->Check(where);
}

}  // namespace lopass
