#include "force_directed.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "sched/asap_alap.h"
#include "sched/resource_set.h"

namespace lopass::sched {

namespace {

struct Frame {
  std::uint32_t lo = 0;  // earliest start
  std::uint32_t hi = 0;  // latest start
  std::uint32_t width() const { return hi - lo + 1; }
};

// Latency of the op on its preferred (smallest) resource.
Cycles LatOf(ir::Opcode op, const power::TechLibrary& lib) {
  const auto candidates = CandidateResources(op);
  LOPASS_CHECK(!candidates.empty(), "op has no candidate resource");
  return lib.spec(candidates[0]).op_latency;
}

}  // namespace

FdsSchedule ForceDirectedSchedule(const BlockDfg& dfg, const power::TechLibrary& lib,
                                  std::uint32_t latency) {
  FdsSchedule out;
  const std::size_t n = dfg.size();
  out.step.assign(n, 0);
  out.type.assign(n, power::ResourceType::kAlu);
  if (n == 0) {
    out.latency = 0;
    return out;
  }

  const UnconstrainedSchedule asap = AsapSchedule(dfg, lib);
  if (latency == 0) latency = asap.makespan;
  LOPASS_CHECK(latency >= asap.makespan, "latency budget below the critical path");
  out.latency = latency;

  std::vector<Cycles> lat(n);
  for (std::size_t i = 0; i < n; ++i) {
    lat[i] = LatOf(dfg.nodes[i].op, lib);
    out.type[i] = CandidateResources(dfg.nodes[i].op)[0];
  }

  // Time frames: start with ASAP/ALAP against the budget.
  std::vector<Frame> frame(n);
  {
    // ALAP with the extended budget: reverse sweep.
    std::vector<std::uint32_t> alap(n, 0);
    for (std::size_t i = n; i-- > 0;) {
      std::uint32_t latest_finish = latency;
      for (std::size_t s : dfg.nodes[i].succs) {
        latest_finish = std::min(latest_finish, alap[s]);
      }
      LOPASS_CHECK(latest_finish >= lat[i], "ALAP underflow");
      alap[i] = latest_finish - static_cast<std::uint32_t>(lat[i]);
    }
    for (std::size_t i = 0; i < n; ++i) frame[i] = Frame{asap.step[i], alap[i]};
  }

  // Distribution graphs per resource type: expected occupancy per step.
  const auto dg_of = [&](const std::vector<Frame>& frames, power::ResourceType t,
                         std::uint32_t step_idx) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (out.type[i] != t) continue;
      const Frame& f = frames[i];
      const double p = 1.0 / f.width();
      // Op occupies [s, s+lat) for each possible start s in its frame.
      for (std::uint32_t s = f.lo; s <= f.hi; ++s) {
        if (step_idx >= s && step_idx < s + lat[i]) sum += p;
      }
    }
    return sum;
  };

  // Propagate frame tightening through the DAG after an assignment.
  // Every pass that reports `changed` raises a lo or lowers a hi, and
  // each of the n frames can move at most `latency` per bound, so the
  // loop is capped at 2*n*(latency+1) passes; exceeding the cap means
  // the frames oscillate (a malformed DFG) and we fail loudly instead
  // of hanging.
  auto tighten = [&](std::vector<Frame>& frames) {
    const std::uint64_t max_passes =
        2 * static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(latency) + 1) + 8;
    std::uint64_t passes = 0;
    bool changed = true;
    while (changed) {
      LOPASS_CHECK(++passes <= max_passes,
                   "force-directed scheduler failed to converge while tightening "
                   "time frames (malformed DFG?)");
      changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t s : dfg.nodes[i].succs) {
          const std::uint32_t min_start = frames[i].lo + static_cast<std::uint32_t>(lat[i]);
          if (frames[s].lo < min_start) {
            frames[s].lo = min_start;
            changed = true;
          }
          const std::uint32_t max_start =
              frames[s].hi >= static_cast<std::uint32_t>(lat[i])
                  ? frames[s].hi - static_cast<std::uint32_t>(lat[i])
                  : 0;
          if (frames[i].hi > max_start) {
            frames[i].hi = max_start;
            changed = true;
          }
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      LOPASS_CHECK(frames[i].lo <= frames[i].hi, "infeasible frame after tightening");
    }
  };
  tighten(frame);

  std::vector<bool> placed(n, false);
  for (std::size_t round = 0; round < n; ++round) {
    // Pick the (op, step) pair with the minimum force among unplaced
    // ops. Force = sum over occupied steps of DG minus the op's own
    // average contribution (self force); successor effects enter
    // through the frame tightening after each placement.
    double best_force = std::numeric_limits<double>::infinity();
    std::size_t best_op = 0;
    std::uint32_t best_step = 0;

    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      if (frame[i].width() == 1) {
        // Forced placement: do it immediately (cheapest and required).
        best_op = i;
        best_step = frame[i].lo;
        best_force = -std::numeric_limits<double>::infinity();
        break;
      }
      // Average DG over the frame for this op's type.
      double avg = 0.0;
      for (std::uint32_t s = frame[i].lo; s <= frame[i].hi; ++s) {
        for (std::uint32_t c = 0; c < lat[i]; ++c) avg += dg_of(frame, out.type[i], s + c);
      }
      avg /= frame[i].width();
      for (std::uint32_t s = frame[i].lo; s <= frame[i].hi; ++s) {
        double occupied = 0.0;
        for (std::uint32_t c = 0; c < lat[i]; ++c) occupied += dg_of(frame, out.type[i], s + c);
        const double force = occupied - avg;
        if (force < best_force) {
          best_force = force;
          best_op = i;
          best_step = s;
        }
      }
    }

    placed[best_op] = true;
    out.step[best_op] = best_step;
    frame[best_op] = Frame{best_step, best_step};
    tighten(frame);
  }

  // Implied allocation: peak concurrency per type.
  std::vector<std::array<int, power::kNumResourceTypes>> usage(latency + 1);
  for (auto& u : usage) u.fill(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t c = 0; c < lat[i]; ++c) {
      usage[out.step[i] + c][static_cast<std::size_t>(static_cast<int>(out.type[i]))]++;
    }
  }
  out.allocation.fill(0);
  for (const auto& u : usage) {
    for (int t = 0; t < power::kNumResourceTypes; ++t) {
      out.allocation[static_cast<std::size_t>(t)] =
          std::max(out.allocation[static_cast<std::size_t>(t)], u[static_cast<std::size_t>(t)]);
    }
  }
  return out;
}

}  // namespace lopass::sched
