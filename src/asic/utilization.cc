#include "asic/utilization.h"

#include <algorithm>

#include "common/error.h"

namespace lopass::asic {

using power::ResourceType;

namespace {

// Tracks, per type, the step at which each allocated instance becomes
// free within the current block's schedule timeline.
struct InstancePool {
  std::array<std::vector<std::uint32_t>, power::kNumResourceTypes> free_at;

  int count(ResourceType t) const {
    return static_cast<int>(free_at[static_cast<std::size_t>(t)].size());
  }
  void ResetTimeline() {
    for (auto& v : free_at) std::fill(v.begin(), v.end(), 0u);
  }
  // Finds an allocated instance of `t` free at `step`; -1 if none.
  int FindFree(ResourceType t, std::uint32_t step) const {
    const auto& v = free_at[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] <= step) return static_cast<int>(i);
    }
    return -1;
  }
  int Allocate(ResourceType t) {
    auto& v = free_at[static_cast<std::size_t>(t)];
    v.push_back(0);
    return static_cast<int>(v.size() - 1);
  }
  void Occupy(ResourceType t, int inst, std::uint32_t until) {
    free_at[static_cast<std::size_t>(t)][static_cast<std::size_t>(inst)] = until;
  }
};

}  // namespace

UtilizationResult ComputeUtilization(const std::vector<ScheduledBlock>& blocks,
                                     const sched::ResourceSet& rs,
                                     const power::TechLibrary& lib) {
  UtilizationResult r;
  InstancePool pool;
  // instance_util indexed via [type][instance].
  std::array<std::vector<std::size_t>, power::kNumResourceTypes> util_index;

  auto util_of = [&](ResourceType t, int inst) -> InstanceUtil& {
    auto& idx = util_index[static_cast<std::size_t>(t)];
    while (static_cast<int>(idx.size()) <= inst) {
      InstanceUtil u;
      u.type = t;
      u.instance = static_cast<int>(idx.size());
      idx.push_back(r.instance_util.size());
      r.instance_util.push_back(u);
    }
    return r.instance_util[idx[static_cast<std::size_t>(inst)]];
  };

  std::array<Cycles, power::kNumResourceTypes> latency{};
  for (int t = 0; t < power::kNumResourceTypes; ++t) {
    latency[static_cast<std::size_t>(t)] = lib.spec(static_cast<ResourceType>(t)).op_latency;
  }
  // Counting-sort buffers, reused across blocks: the first order slot
  // of each control step, then the ops in (step, node) order.
  std::vector<std::size_t> step_start;
  std::vector<std::size_t> order;

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const ScheduledBlock& sb = blocks[b];
    LOPASS_CHECK(sb.dfg != nullptr && sb.schedule != nullptr, "unscheduled block");
    LOPASS_CHECK(sb.schedule->ops.size() == sb.dfg->size(), "schedule/DFG size mismatch");
    // The controller spends at least one cycle sequencing through a
    // block, even an empty one (bare branch).
    r.total_cycles +=
        static_cast<Cycles>(std::max(sb.schedule->num_steps, 1u)) * sb.ex_times;
    if (sb.dfg->size() == 0) continue;

    // Each block executes on the shared datapath with a fresh timeline.
    pool.ResetTimeline();

    // Process ops in control-step order, stable by node index: a
    // counting sort over the schedule's steps.
    const std::vector<sched::ScheduledOp>& ops = sb.schedule->ops;
    const std::uint32_t num_steps = sb.schedule->num_steps;
    step_start.assign(static_cast<std::size_t>(num_steps) + 1, 0);
    for (std::size_t n = 0; n < ops.size(); ++n) {
      LOPASS_CHECK(ops[n].step < num_steps, "op scheduled past the schedule's num_steps");
      ++step_start[ops[n].step + 1];
    }
    for (std::uint32_t s = 0; s < num_steps; ++s) step_start[s + 1] += step_start[s];
    order.resize(ops.size());
    for (std::size_t n = 0; n < ops.size(); ++n) {
      order[step_start[ops[n].step]++] = n;
    }

    for (const std::size_t n : order) {
      const sched::ScheduledOp& op = ops[n];
      const auto candidates = sched::CandidateResources(sb.dfg->nodes[n].op);
      LOPASS_CHECK(!candidates.empty(), "op without candidate resources in cluster");

      // Fig. 4 lines 7-13: reuse an instantiated, currently free
      // instance, walking candidates from smallest to largest.
      ResourceType chosen = candidates[0];
      int inst = -1;
      for (ResourceType t : candidates) {
        const int free_inst = pool.FindFree(t, op.step);
        if (free_inst >= 0) {
          chosen = t;
          inst = free_inst;
          break;
        }
      }
      if (inst < 0) {
        // Instantiate: prefer the smallest candidate whose designer
        // budget is not exhausted; fall back to the smallest overall.
        ResourceType alloc_type = candidates[0];
        for (ResourceType t : candidates) {
          if (pool.count(t) < rs.of(t)) {
            alloc_type = t;
            break;
          }
        }
        chosen = alloc_type;
        inst = pool.Allocate(alloc_type);
      }
      const Cycles lat = latency[static_cast<std::size_t>(chosen)];
      pool.Occupy(chosen, inst, op.step + static_cast<std::uint32_t>(lat));

      InstanceUtil& u = util_of(chosen, inst);
      u.active_cycles += static_cast<std::uint64_t>(lat) * sb.ex_times;  // #ex_cycs × #ex_times
      u.ops += sb.ex_times;

      OpBinding binding;
      binding.block = b;
      binding.node = n;
      binding.type = chosen;
      binding.instance = inst;
      r.bindings.push_back(binding);
    }
  }

  // GEQ_RS (Fig. 4 lines 16-18).
  for (int t = 0; t < power::kNumResourceTypes; ++t) {
    const int n = pool.count(static_cast<ResourceType>(t));
    r.instances[static_cast<std::size_t>(t)] = n;
    r.geq += n * lib.spec(static_cast<ResourceType>(t)).geq;
  }

  // U_R^core (Fig. 4 line 24 / Eq. 4): mean instance utilization.
  if (r.total_cycles > 0 && !r.instance_util.empty()) {
    double sum = 0.0;
    for (const InstanceUtil& u : r.instance_util) {
      sum += static_cast<double>(u.active_cycles) / static_cast<double>(r.total_cycles);
    }
    r.u_core = sum / static_cast<double>(r.instance_util.size());
  }
  return r;
}

}  // namespace lopass::asic
