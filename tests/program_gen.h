#pragma once

// Seeded generator of small loop-bearing DSL programs, shared by the
// partitioner's differential and fuzz tests: two or three loops over
// `array a[32]; array b[32];` drawn from four templates (MAC over
// arrays, scalar recurrence with division, branchy accumulation,
// shifts and min/max), `func main(p)` returning a mix of the results.
// GeneratedWorkload runs one with argument `p` over fixed array data.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/workload.h"

namespace lopass::core {

inline std::string GenerateProgram(Prng& rng) {
  std::ostringstream os;
  os << "var g0; var g1;\n";
  os << "array a[32]; array b[32];\n";
  os << "func main(p) {\n  var i; var t;\n  t = p;\n";

  const int nloops = 2 + static_cast<int>(rng.next_below(2));
  for (int l = 0; l < nloops; ++l) {
    const int trip = static_cast<int>(rng.next_in(40, 400));
    os << "  for (i = 0; i < " << trip << "; i = i + 1) {\n";
    switch (rng.next_below(4)) {
      case 0:  // MAC over arrays
        os << "    a[i & 31] = b[i & 31] * " << rng.next_in(1, 7) << " + t;\n"
           << "    t = t + a[(i * 3) & 31];\n";
        break;
      case 1:  // scalar recurrence with division
        os << "    t = t + (1000 - t) / " << rng.next_in(3, 17) << ";\n"
           << "    g0 = g0 + (t & 15);\n";
        break;
      case 2:  // branchy accumulation
        os << "    if ((i & 3) == 1) { g1 = g1 + b[i & 31]; }\n"
           << "    else { t = t ^ (i << 1); }\n";
        break;
      default:  // shifts and min/max
        os << "    t = max(t, b[i & 31] << 1) - min(i, 100);\n"
           << "    b[i & 31] = t & 255;\n";
        break;
    }
    os << "  }\n";
  }
  os << "  return t + g0 * 3 - g1;\n}\n";
  return os.str();
}

inline Workload GeneratedWorkload(std::int64_t arg) {
  Workload w;
  w.args = {arg};
  w.setup = [](DataTarget& t) {
    // The same fixed data for every seed.
    Prng data(0xdada);
    std::vector<std::int64_t> va, vb;
    for (int i = 0; i < 32; ++i) {
      va.push_back(data.next_in(-50, 50));
      vb.push_back(data.next_in(-50, 50));
    }
    t.FillArray("a", va);
    t.FillArray("b", vb);
  };
  return w;
}

}  // namespace lopass::core
