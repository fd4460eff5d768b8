#pragma once

// Error handling for lopass.
//
// The library throws lopass::Error for all user-facing failures (parse
// errors, malformed IR, invalid configuration, bad workload data); its
// text is the message alone, so it reads the same from any checkout.
// LOPASS_CHECK is used for internal invariants whose violation
// indicates a bug in lopass itself; it also throws (rather than
// aborting) so tests can assert on invariant violations, and its text
// names the violated expression and its `file.cc:line`.

#include <stdexcept>
#include <string>

namespace lopass {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace internal {
std::string FormatCheckMessage(const char* file, int line, const char* expr,
                               const std::string& detail);
}  // namespace internal

}  // namespace lopass

// Internal invariant check. Example:
//   LOPASS_CHECK(idx < blocks_.size(), "block index out of range");
#define LOPASS_CHECK(cond, detail)                                             \
  do {                                                                          \
    if (!(cond)) {                                                              \
      throw ::lopass::Error(::lopass::internal::FormatCheckMessage(             \
          __FILE__, __LINE__, #cond, (detail)));                                \
    }                                                                           \
  } while (0)
