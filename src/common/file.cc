#include "common/file.h"

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/error.h"

namespace lopass {

bool ReadFile(const std::string& path, std::string& content, std::string_view what) {
  std::error_code ec;
  const auto status = std::filesystem::status(path, ec);
  if (std::filesystem::exists(status) && !std::filesystem::is_regular_file(status)) {
    throw Error(std::string(what) + " '" + path + "' is not a regular file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  content.append(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

}  // namespace lopass
