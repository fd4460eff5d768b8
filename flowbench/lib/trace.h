#pragma once

// In-memory span and counter recorder for the traced run. Spans are
// opened and closed by the benchmark around its calls into each lopass
// module; nothing inside the program is instrumented. One Tracer is
// used from one thread.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace flowbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // steady_clock, relative to the tracer's start
  std::int64_t end_ns = -1;   // -1 while open
  int parent = -1;            // index of the enclosing span, -1 at top level
  int op = 0;                 // op the span belongs to
};

class Tracer {
 public:
  Tracer();

  // Starts op `op`: later spans and counts belong to it.
  void BeginOp(int op);
  // Opens a span nested in the innermost open one; returns its index.
  int Open(std::string name);
  void Close(int index);
  // Adds `value` to the counter `name` of the current op.
  void Count(const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  // counters()[op][name]
  const std::map<int, std::map<std::string, double>>& counters() const { return counters_; }

  // Sum of the durations (ms) of spans named `name`, per op.
  std::map<int, double> TotalMs(const std::string& name) const;
  // Per op, the summed duration (ms) of the direct children of spans
  // named `parent`.
  std::map<int, double> ChildrenMs(const std::string& parent) const;

 private:
  std::int64_t Now() const;

  std::int64_t origin_ns_ = 0;
  int op_ = 0;
  std::vector<int> open_;
  std::vector<Span> spans_;
  std::map<int, std::map<std::string, double>> counters_;
};

// Closes its span on scope exit, exceptions included.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), index_(tracer.Open(std::move(name))) {}
  ~ScopedSpan() { tracer_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// True when every span is closed, ends no earlier than it starts, and
// lies inside its parent's interval and op.
bool SpansNest(const std::vector<Span>& spans);

// The spans and per-op counters as one JSON document.
std::string TraceJson(const Tracer& tracer);

}  // namespace flowbench
