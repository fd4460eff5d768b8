#pragma once

// Very small leveled logger. The partitioner emits progress at Info
// level; noisy per-cluster detail goes to Debug. Tests run silent by
// default. The LOPASS_LOG environment variable
// (debug|info|warning|error|off) sets the threshold, read once; the
// default is warning. kError messages are always
// emitted regardless of the threshold — raising the level silences
// progress chatter, never failure reports.

#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace lopass {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

// Global log threshold; messages below it are dropped. The first call
// reads LOPASS_LOG from the environment.
LogLevel GetLogLevel();

// "debug"/"info"/"warning" (or "warn")/"error"/"off", case-insensitive;
// anything else returns `fallback`.
LogLevel LogLevelFromString(std::string_view name, LogLevel fallback);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* tag) : level_(level) {
    stream_ << '[' << tag << "] ";
  }
  ~LogMessage() {
    if (level_ == LogLevel::kError || level_ >= GetLogLevel()) {
      std::cerr << stream_.str() << std::endl;
    }
  }
  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace lopass

#define LOPASS_LOG_DEBUG ::lopass::internal::LogMessage(::lopass::LogLevel::kDebug, "debug").stream()
#define LOPASS_LOG_INFO ::lopass::internal::LogMessage(::lopass::LogLevel::kInfo, "info").stream()
#define LOPASS_LOG_WARN ::lopass::internal::LogMessage(::lopass::LogLevel::kWarning, "warn").stream()
#define LOPASS_LOG_ERROR ::lopass::internal::LogMessage(::lopass::LogLevel::kError, "error").stream()
