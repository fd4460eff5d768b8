#include "common/error.h"

#include <cstring>
#include <sstream>

namespace lopass {
namespace internal {

std::string FormatCheckMessage(const char* file, int line, const char* expr,
                               const std::string& detail) {
  // The basename only: a checkout's directory is no part of the bug.
  const char* slash = std::strrchr(file, '/');
  std::ostringstream os;
  os << "internal invariant violated: " << expr;
  if (!detail.empty()) os << " — " << detail;
  os << " (" << (slash ? slash + 1 : file) << ":" << line << ")";
  return os.str();
}

}  // namespace internal
}  // namespace lopass
