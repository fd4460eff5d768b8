#include "common/diag.h"

#include <sstream>

namespace lopass {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << SeverityName(severity);
  if (!code.empty()) os << '[' << code << ']';
  if (loc.valid()) {
    os << ' ' << loc.line << ':' << loc.col;
  }
  os << ": " << message;
  return os.str();
}

void DiagnosticSink::Add(Diagnostic d) {
  if (d.severity == Severity::kError) ++error_count_;
  if (diagnostics_.size() >= kMaxDiagnostics) {
    ++dropped_;
    return;
  }
  diagnostics_.push_back(std::move(d));
}

void DiagnosticSink::AddError(std::string code, std::string message, SourceLoc loc) {
  Add(Diagnostic{Severity::kError, std::move(code), loc, std::move(message)});
}

void DiagnosticSink::AddWarning(std::string code, std::string message, SourceLoc loc) {
  Add(Diagnostic{Severity::kWarning, std::move(code), loc, std::move(message)});
}

void DiagnosticSink::AddNote(std::string code, std::string message, SourceLoc loc) {
  Add(Diagnostic{Severity::kNote, std::move(code), loc, std::move(message)});
}

std::string DiagnosticSink::ToString() const {
  return diagnostics_.empty() ? "" : JoinDiagnostics(DiagnosticSink(*this).Take());
}

std::vector<Diagnostic> DiagnosticSink::Take() {
  std::vector<Diagnostic> out = std::move(diagnostics_);
  if (dropped_ > 0) {
    out.push_back(Diagnostic{Severity::kError, std::string(kOverflowCode), SourceLoc{},
                             std::to_string(dropped_) + " finding(s) past the first " +
                                 std::to_string(kMaxDiagnostics) + " were dropped"});
  }
  *this = DiagnosticSink{};
  return out;
}

std::string JoinDiagnostics(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (i) os << '\n';
    os << diags[i].ToString();
  }
  if (diags.empty()) os << "operation failed (no diagnostics)";
  return os.str();
}

}  // namespace lopass
