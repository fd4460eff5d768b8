#pragma once

// Structured diagnostics for lopass.
//
// lopass::Error (common/error.h) is the low-level "something threw"
// channel. This header adds the layer library entry points use to talk
// to humans and drivers: a Diagnostic carries a severity, a stable
// machine-readable code (e.g. "parse.syntax", "fault.injected"), an
// optional source location and a message; a DiagnosticSink collects
// them for one run; Result<T> is the value-or-diagnostics boundary the
// parser, lowering and partitioner expose so callers get *all* the
// errors of a bad input, not just the first throw.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace lopass {

enum class Severity { kNote = 0, kWarning = 1, kError = 2 };

const char* SeverityName(Severity s);

// 1-based source position; line 0 means "no location".
struct SourceLoc {
  int line = 0;
  int col = 0;

  bool valid() const { return line > 0; }
};

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;     // stable dotted identifier, e.g. "sched.no-resource"
  SourceLoc loc;        // where in the DSL source, if known
  std::string message;  // human-readable explanation

  // "error[parse.syntax] 3:7: expected ';', found '}'"
  std::string ToString() const;
};

// Every DiagnosticSink keeps at most this many diagnostics: a bound on
// the memory a pathological input can take.
inline constexpr std::size_t kMaxDiagnostics = std::size_t{1} << 14;
inline constexpr std::string_view kOverflowCode = "diag.overflow";

// Collects the diagnostics of one run. Past kMaxDiagnostics entries
// further ones are dropped but still counted (errors too), and Take()
// and ToString() end with one kOverflowCode error that says how many
// were dropped.
class DiagnosticSink {
 public:
  void Add(Diagnostic d);
  void AddError(std::string code, std::string message, SourceLoc loc = {});
  void AddWarning(std::string code, std::string message, SourceLoc loc = {});
  void AddNote(std::string code, std::string message, SourceLoc loc = {});

  bool has_errors() const { return error_count_ > 0; }
  // Errors added, kept or dropped.
  std::size_t error_count() const { return error_count_; }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // What Take() would return, newline-joined ("" when empty).
  std::string ToString() const;

  // Moves the collected diagnostics out, leaving the sink empty.
  std::vector<Diagnostic> Take();

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t error_count_ = 0;
  std::size_t dropped_ = 0;
};

// Joins diagnostics into one lopass::Error message (used when a
// Result-returning entry point is consumed by a throwing caller).
std::string JoinDiagnostics(const std::vector<Diagnostic>& diags);

// Value-or-diagnostics. An ok() Result may still carry warnings/notes;
// a failed Result carries at least one error diagnostic.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Success.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(T value, std::vector<Diagnostic> diags)
      : value_(std::move(value)), diags_(std::move(diags)) {}

  // Failure.
  static Result Failure(std::vector<Diagnostic> diags) {
    Result r;
    r.diags_ = std::move(diags);
    if (r.diags_.empty()) {
      r.diags_.push_back(Diagnostic{Severity::kError, "internal.unspecified",
                                    SourceLoc{}, "operation failed"});
    }
    return r;
  }
  static Result Failure(Diagnostic d) {
    std::vector<Diagnostic> v;
    v.push_back(std::move(d));
    return Failure(std::move(v));
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  T& value() {
    LOPASS_CHECK(ok(), "Result::value() on a failed result");
    return *value_;
  }
  const T& value() const {
    LOPASS_CHECK(ok(), "Result::value() on a failed result");
    return *value_;
  }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  // Throws lopass::Error with all diagnostics joined if this is a
  // failure; otherwise returns the value.
  T& ValueOrThrow() {
    if (!ok()) throw Error(JoinDiagnostics(diags_));
    return *value_;
  }

 private:
  Result() = default;

  std::optional<T> value_;
  std::vector<Diagnostic> diags_;
};

}  // namespace lopass
