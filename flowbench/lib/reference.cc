#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include <malloc.h>

namespace flowbench {
namespace {

std::uint64_t XorShift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Data-dependent dispatch over a table that fits the L2 cache, like the
// simulators' inner loops.
std::uint64_t TableLoop(int steps) {
  std::vector<std::uint32_t> mem(64 * 1024, 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 1;
  for (int i = 0; i < steps; ++i) {
    XorShift(x);
    const std::size_t at = x & (mem.size() - 1);
    switch (x >> 62) {
      case 0:
        mem[at] += static_cast<std::uint32_t>(acc);
        break;
      case 1:
        acc += mem[at] * 3;
        break;
      case 2:
        acc ^= mem[(at + acc) & (mem.size() - 1)];
        break;
      default:
        if (acc & 1) {
          acc = (acc >> 1) + mem[at];
        } else {
          mem[at] ^= static_cast<std::uint32_t>(x);
        }
        break;
    }
  }
  return acc;
}

// Allocation-heavy library code, like the partitioner's containers and
// the journal's number formatting.
std::uint64_t LibraryMix(int n) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  std::map<std::uint32_t, std::uint32_t> tree;
  std::unordered_map<std::string, int> table;
  std::vector<std::uint32_t> values;
  char buf[64];
  for (int i = 0; i < n; ++i) {
    tree[static_cast<std::uint32_t>(XorShift(x) % 65536)] += static_cast<std::uint32_t>(i);
    std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(XorShift(x) % 1000003) / 7.0);
    table[buf] += i;
    values.push_back(static_cast<std::uint32_t>(XorShift(x)));
  }
  std::sort(values.begin(), values.end());
  for (int i = 0; i < n; ++i) {
    const auto it = tree.find(static_cast<std::uint32_t>(XorShift(x) % 65536));
    if (it != tree.end()) acc += it->second;
  }
  return acc + values[values.size() / 2] + table.size();
}

volatile std::uint64_t g_sink = 0;

}  // namespace

double ReferenceMs() {
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = g_sink + TableLoop(2'000'000) + LibraryMix(20'000);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  malloc_trim(0);
  return ms;
}

}  // namespace flowbench
