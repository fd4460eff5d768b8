#pragma once

// Host-speed reference. The benchmark runs on shared virtual machines
// whose speed drifts by 30-50% over seconds to minutes. A fixed
// computation that lives in the benchmark, not in lopass, is timed next
// to the ops; each op's wall time is then scaled by
// kNominalReferenceMs / (reference time at that moment), which gives
// the time the op would take on a host where the reference takes
// kNominalReferenceMs. A change to lopass cannot change the
// reference's work, so a real speed-up shows in full.

namespace flowbench {

inline constexpr double kNominalReferenceMs = 40.0;

// Runs the reference once (an ALU/branch loop over a 256 KiB table plus
// a mix of ordered and hashed maps, sorting and number formatting) and
// returns its wall time in ms. All its memory is freed and returned to
// the OS before it returns.
double ReferenceMs();

}  // namespace flowbench
