#include "common/logging.h"

#include <cctype>
#include <cstdlib>

namespace lopass {

LogLevel GetLogLevel() {
  static const LogLevel level = [] {
    const char* env = std::getenv("LOPASS_LOG");
    return env != nullptr ? LogLevelFromString(env, LogLevel::kWarning) : LogLevel::kWarning;
  }();
  return level;
}

LogLevel LogLevelFromString(std::string_view name, LogLevel fallback) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warning" || lower == "warn") return LogLevel::kWarning;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none" || lower == "silent") return LogLevel::kOff;
  return fallback;
}

}  // namespace lopass
