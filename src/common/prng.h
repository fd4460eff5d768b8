#pragma once

// Deterministic pseudo-random number generator used by workload
// generators and the switching-activity model. A fixed, seedable
// xoshiro256** keeps experiment outputs reproducible across platforms
// (std::mt19937 would work too, but distributions are not portable).

#include <cstdint>
#include <string_view>

namespace lopass {

class Prng {
 public:
  explicit Prng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& w : s_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    return bound == 0 ? 0 : next_u64() % bound;
  }

  // Uniform in [lo, hi] (inclusive).
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// 64-bit FNV-1a of a byte string. Folds a job key into a seed so that
// per-job PRNG streams depend on the key alone.
inline std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace lopass
