#pragma once

// Physical unit helpers used throughout lopass.
//
// Energies are carried as plain doubles in joules, times in seconds and
// cycle counts as unsigned 64-bit integers. The strong-typedef wrappers
// below exist for the public API surface where confusing joules with
// watts (or ns with s) would be an easy mistake; internally, models may
// work on the raw doubles.

#include <cstdint>
#include <string>

namespace lopass {

using Cycles = std::uint64_t;

// Energy in joules.
struct Energy {
  double joules = 0.0;

  constexpr Energy() = default;
  constexpr explicit Energy(double j) : joules(j) {}

  static constexpr Energy from_millijoules(double mj) { return Energy{mj * 1e-3}; }
  static constexpr Energy from_microjoules(double uj) { return Energy{uj * 1e-6}; }
  static constexpr Energy from_nanojoules(double nj) { return Energy{nj * 1e-9}; }
  static constexpr Energy from_picojoules(double pj) { return Energy{pj * 1e-12}; }

  constexpr double millijoules() const { return joules * 1e3; }
  constexpr double microjoules() const { return joules * 1e6; }
  constexpr double nanojoules() const { return joules * 1e9; }
  constexpr double picojoules() const { return joules * 1e12; }

  constexpr Energy& operator+=(Energy o) { joules += o.joules; return *this; }
  constexpr Energy& operator-=(Energy o) { joules -= o.joules; return *this; }
  constexpr Energy& operator*=(double k) { joules *= k; return *this; }

  friend constexpr Energy operator+(Energy a, Energy b) { return Energy{a.joules + b.joules}; }
  friend constexpr Energy operator-(Energy a, Energy b) { return Energy{a.joules - b.joules}; }
  friend constexpr Energy operator*(Energy a, double k) { return Energy{a.joules * k}; }
  friend constexpr Energy operator*(double k, Energy a) { return Energy{a.joules * k}; }
  friend constexpr Energy operator/(Energy a, double k) { return Energy{a.joules / k}; }
  friend constexpr double operator/(Energy a, Energy b) { return a.joules / b.joules; }
  friend constexpr auto operator<=>(Energy a, Energy b) = default;
};

// Power in watts.
struct Power {
  double watts = 0.0;

  constexpr Power() = default;
  constexpr explicit Power(double w) : watts(w) {}

  static constexpr Power from_milliwatts(double mw) { return Power{mw * 1e-3}; }

  friend constexpr Power operator+(Power a, Power b) { return Power{a.watts + b.watts}; }
  friend constexpr Power operator*(Power a, double k) { return Power{a.watts * k}; }
  friend constexpr auto operator<=>(Power a, Power b) = default;
};

// Time duration in seconds.
struct Duration {
  double seconds = 0.0;

  constexpr Duration() = default;
  constexpr explicit Duration(double s) : seconds(s) {}

  static constexpr Duration from_nanoseconds(double ns) { return Duration{ns * 1e-9}; }
  static constexpr Duration from_microseconds(double us) { return Duration{us * 1e-6}; }
  static constexpr Duration from_milliseconds(double ms) { return Duration{ms * 1e-3}; }

  constexpr double nanoseconds() const { return seconds * 1e9; }
  constexpr double microseconds() const { return seconds * 1e6; }
  constexpr double milliseconds() const { return seconds * 1e3; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.seconds + b.seconds}; }
  friend constexpr Duration operator*(Duration a, double k) { return Duration{a.seconds * k}; }
  friend constexpr auto operator<=>(Duration a, Duration b) = default;
};

// E = P * t
constexpr Energy operator*(Power p, Duration t) { return Energy{p.watts * t.seconds}; }
constexpr Energy operator*(Duration t, Power p) { return p * t; }

// --- guarded accumulation ---------------------------------------------
//
// Cycle counters are unsigned 64-bit; a pathological workload (or a
// corrupted model) must pin them at the ceiling rather than silently
// wrap around to a small value. Energies are doubles; they cannot wrap
// but can go non-finite (inf/NaN) through a misconfigured model — the
// sanity check below turns that into a diagnostic instead of letting
// NaNs poison every downstream comparison.

inline constexpr Cycles kCyclesCeiling = ~static_cast<Cycles>(0);

// a + b, clamped at kCyclesCeiling instead of wrapping.
constexpr Cycles SaturatingAdd(Cycles a, Cycles b) {
  return a > kCyclesCeiling - b ? kCyclesCeiling : a + b;
}

// Two's-complement wrapping arithmetic for *simulated program values*:
// the DSL/SL32 machine defines add/sub/mul/neg/shl/div/mod to wrap at 64
// bits, so the execution engines must not inherit C++'s undefined
// behavior on signed overflow. The one overflowing quotient wraps too:
// INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0. (Cycle/energy
// accounting saturates instead — see SaturatingAdd above.)
constexpr std::int64_t WrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
constexpr std::int64_t WrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
constexpr std::int64_t WrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
constexpr std::int64_t WrapNeg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}
// Division and modulo by zero stay the caller's trap: `b` must be nonzero.
constexpr std::int64_t WrapDiv(std::int64_t a, std::int64_t b) {
  return b == -1 ? WrapNeg(a) : a / b;
}
constexpr std::int64_t WrapMod(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}
constexpr std::int64_t WrapShl(std::int64_t a, std::int64_t sh) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                   << (static_cast<std::uint64_t>(sh) & 63));
}

// True when the energy value is finite (negative values are allowed:
// residual estimates may legitimately dip below zero by rounding).
bool EnergyIsSane(Energy e);

// Throws lopass::Error naming `what` if `e` is non-finite.
void CheckEnergySane(Energy e, const char* what);

// Formats an energy value the way the paper's Table 1 does: pick the
// most readable suffix among J / mJ / uJ / nJ / pJ.
std::string FormatEnergy(Energy e);

// Formats a relative change in percent, e.g. -35.21 -> "-35.21".
std::string FormatPercent(double percent);

}  // namespace lopass
