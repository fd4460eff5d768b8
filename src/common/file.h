#pragma once

#include <string>
#include <string_view>

namespace lopass {

// Reads the whole file at `path` into `content`; false if it cannot be
// opened. A path that exists but is not a regular file (a device, a
// pipe, a directory) throws Error("<what> '<path>' is not a regular
// file"): reading /dev/zero to its end would never finish.
bool ReadFile(const std::string& path, std::string& content, std::string_view what);

}  // namespace lopass
