#include "generator.h"

#include <sstream>

#include "common/prng.h"

namespace flowbench {
namespace {

constexpr int kVars = 16;

std::string Var(lopass::Prng& rng) { return "v" + std::to_string(rng.next_below(kVars)); }

// Array element indexed relative to the loop counter, always in bounds.
std::string Elem(lopass::Prng& rng, const char* array) {
  return std::string(array) + "[(i + " + std::to_string(rng.next_below(8)) + ") & 7]";
}

}  // namespace

std::uint64_t PoolSeed(std::uint64_t seed, int index) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(index) * 0xbf58476d1ce4e5b9ull + 1;
}

std::string GenerateBigBlock(std::uint64_t seed, int statements) {
  lopass::Prng rng(seed);
  std::ostringstream os;
  for (int v = 0; v < kVars; ++v) os << "var v" << v << ";\n";
  os << "array a[8];\narray b[8];\n\nfunc main() {\n  var i;\n";
  for (int v = 0; v < kVars; ++v) os << "  v" << v << " = " << rng.next_in(-99, 99) << ";\n";
  os << "  for (i = 0; i < 8; i = i + 1) {\n";
  for (int s = 0; s < statements; ++s) {
    os << "    ";
    switch (rng.next_below(6)) {
      case 0:
        os << Var(rng) << " = " << Var(rng) << " + " << Var(rng) << ";\n";
        break;
      case 1:
        os << Var(rng) << " = (" << Var(rng) << " ^ " << Var(rng) << ") - (" << Var(rng)
           << " & " << rng.next_in(1, 255) << ");\n";
        break;
      case 2:
        os << Elem(rng, "a") << " = " << Var(rng) << " - " << Var(rng) << ";\n";
        break;
      case 3:
        os << Var(rng) << " = " << Elem(rng, "b") << " + " << Var(rng) << ";\n";
        break;
      case 4:
        os << Var(rng) << " = max(" << Var(rng) << ", " << Var(rng) << ") - min(" << Var(rng)
           << ", " << rng.next_in(-50, 50) << ");\n";
        break;
      default:
        os << Elem(rng, "b") << " = " << Var(rng) << " | " << Var(rng) << ";\n";
        break;
    }
  }
  os << "  }\n  return v0";
  for (int v = 1; v < kVars; ++v) os << " ^ v" << v;
  os << " ^ a[3] ^ b[5];\n}\n";
  return os.str();
}

}  // namespace flowbench
