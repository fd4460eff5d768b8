#pragma once

// Helpers shared by the pinned-fingerprint tests
// (test_schedule_fingerprint, test_dfg_fingerprint,
// test_utilization_fingerprint): a 64-bit FNV-1a
// hash, the `name hex` fixture format under LOPASS_TEST_DATA_DIR, and
// the generated straight-line blocks of about 3K operations they pin
// (test_analysis lints the same blocks).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/prng.h"

namespace lopass::fingerprint {

class Fnv {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// The fingerprints in data file `file` whose name starts with `prefix`.
inline std::map<std::string, std::uint64_t> LoadPinned(const std::string& file,
                                                       const std::string& prefix) {
  std::ifstream in(std::string(LOPASS_TEST_DATA_DIR) + "/" + file);
  std::map<std::string, std::uint64_t> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream ls(line);
    std::string name, hex;
    ls >> name >> hex;
    pinned[name] = std::stoull(hex, nullptr, 16);
  }
  return pinned;
}

// Requires `actual` to equal the pinned `prefix` entries of `file`; a
// failure prints every computed fingerprint in the fixture's format.
inline void ExpectPinned(const std::string& file, const std::string& prefix,
                         const std::map<std::string, std::uint64_t>& actual) {
  std::ostringstream computed;
  for (const auto& [name, v] : actual) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(v));
    computed << name << ' ' << hex << '\n';
  }
  EXPECT_EQ(LoadPinned(file, prefix), actual) << "computed fingerprints:\n" << computed.str();
}

// Straight-line loop body of `statements` assignments; `mix` 0 uses no
// multiply or divide, 1 adds multiplies, 2 adds divides as well.
inline std::string BigBlockSource(Prng& rng, int statements, int mix) {
  auto var = [&] {
    std::string v = "v";
    v += std::to_string(rng.next_below(12));
    return v;
  };
  auto elem = [&](const char* a) {
    return std::string(a) + "[(i + " + std::to_string(rng.next_below(8)) + ") & 7]";
  };
  std::ostringstream os;
  for (int v = 0; v < 12; ++v) os << "var v" << v << ";\n";
  os << "array a[8];\narray b[8];\nfunc main() {\n  var i;\n";
  os << "  for (i = 0; i < 8; i = i + 1) {\n";
  const std::uint64_t kinds = 5 + static_cast<std::uint64_t>(mix);
  for (int s = 0; s < statements; ++s) {
    os << "    ";
    switch (rng.next_below(kinds)) {
      case 0: os << var() << " = " << var() << " + " << var() << " - " << var() << ";\n"; break;
      case 1: os << var() << " = (" << var() << " ^ " << var() << ") << 1;\n"; break;
      case 2: os << elem("a") << " = " << var() << " & " << elem("b") << ";\n"; break;
      case 3: os << var() << " = max(" << var() << ", " << var() << ") < " << var() << ";\n"; break;
      case 4: os << elem("b") << " = " << var() << " | " << var() << ";\n"; break;
      case 5: os << var() << " = " << var() << " * " << var() << " + " << var() << ";\n"; break;
      default: os << var() << " = " << var() << " / (" << var() << " | 1);\n"; break;
    }
  }
  os << "  }\n  return v0 ^ v1 ^ a[3] ^ b[5];\n}\n";
  return os.str();
}

}  // namespace lopass::fingerprint
