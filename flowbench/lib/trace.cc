#include "trace.h"

#include <chrono>
#include <cstdio>
#include <sstream>

namespace flowbench {

Tracer::Tracer() : origin_ns_(0) { origin_ns_ = Now(); }

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_ns_;
}

void Tracer::BeginOp(int op) { op_ = op; }

int Tracer::Open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = Now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = Now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Count(const std::string& name, double value) { counters_[op_][name] += value; }

std::map<int, double> Tracer::TotalMs(const std::string& name) const {
  std::map<int, double> ms;
  for (const Span& s : spans_) {
    if (s.name == name) ms[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return ms;
}

std::map<int, double> Tracer::ChildrenMs(const std::string& parent) const {
  std::map<int, double> ms;
  for (const Span& s : spans_) {
    if (s.parent < 0 || spans_[static_cast<std::size_t>(s.parent)].name != parent) continue;
    ms[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return ms;
}

bool SpansNest(const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) return false;
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= i) return false;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (p.op != s.op || s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
  }
  return true;
}

std::string TraceJson(const Tracer& tracer) {
  std::ostringstream os;
  os << "{\"spans\":[";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"op\":" << s.op << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}";
  }
  os << "],\n\"counters\":{";
  bool first_op = true;
  for (const auto& [op, counts] : tracer.counters()) {
    os << (first_op ? "\n" : ",\n") << "\"" << op << "\":{";
    first_op = false;
    bool first = true;
    for (const auto& [name, value] : counts) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      os << (first ? "" : ",") << "\"" << name << "\":" << buf;
      first = false;
    }
    os << "}";
  }
  os << "}}\n";
  return os.str();
}

}  // namespace flowbench
