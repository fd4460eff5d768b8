#include "sched/list_scheduler.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/fault.h"
#include "ir/opcode.h"
#include "sched/asap_alap.h"

namespace lopass::sched {

using power::ResourceType;

BlockSchedule ListSchedule(const BlockDfg& dfg, const ResourceSet& rs,
                           const power::TechLibrary& lib,
                           const SchedulerOptions& options) {
  fault::MaybeInject("schedule");
  BlockSchedule sched;
  sched.ops.resize(dfg.size());
  if (dfg.size() == 0) {
    sched.num_steps = 0;
    return sched;
  }

  LOPASS_CHECK(dfg.size() <= std::numeric_limits<std::uint32_t>::max(),
               "the ready keys hold a node index in 32 bits");
  const double period = lib.params().clock_period().seconds;
  std::array<Cycles, power::kNumResourceTypes> latency;
  std::array<double, power::kNumResourceTypes> min_cycle;
  for (int t = 0; t < power::kNumResourceTypes; ++t) {
    const power::ResourceSpec& spec = lib.spec(static_cast<ResourceType>(t));
    latency[static_cast<std::size_t>(t)] = spec.op_latency;
    min_cycle[static_cast<std::size_t>(t)] = spec.min_cycle_time.seconds;
  }

  // busy_until[type] holds, per instance, the first step it is free.
  std::array<std::vector<std::uint32_t>, power::kNumResourceTypes> busy_until;
  for (int t = 0; t < power::kNumResourceTypes; ++t) {
    busy_until[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(std::max(0, rs.count[static_cast<std::size_t>(t)])), 0);
  }
  auto free_instance = [&](ResourceType t, std::uint32_t step) -> std::uint32_t* {
    for (std::uint32_t& until : busy_until[static_cast<std::size_t>(t)]) {
      if (until <= step) return &until;
    }
    return nullptr;
  };

  // Candidate types, computed once per opcode. Nodes with the same
  // candidate list share a class (the opcode switch yields at most
  // seven). Every op is checked here, so an unschedulable block names
  // its lowest-index offending op. Both checks are configuration
  // outcomes (a block with a call, a set without a multiplier), not
  // internal invariants, so they throw a plain Error.
  std::vector<std::span<const ResourceType>> class_types;
  std::array<int, 256> class_of_opcode;
  class_of_opcode.fill(-1);
  std::vector<std::size_t> class_of(dfg.size());
  for (std::size_t n = 0; n < dfg.size(); ++n) {
    const ir::Opcode op = dfg.nodes[n].op;
    int& c = class_of_opcode[static_cast<std::size_t>(op)];
    if (c < 0) {
      const std::span<const ResourceType> candidates = CandidateResources(op);
      if (candidates.empty()) {
        throw Error(std::string("operation not HW-mappable: ") + ir::OpcodeName(op));
      }
      const bool feasible = std::any_of(candidates.begin(), candidates.end(), [&](ResourceType t) {
        return !busy_until[static_cast<std::size_t>(t)].empty();
      });
      if (!feasible) {
        throw Error(std::string("resource set '") + rs.name + "' provides no resource for " +
                    ir::OpcodeName(op));
      }
      c = static_cast<int>(std::find_if(class_types.begin(), class_types.end(),
                                        [&](std::span<const ResourceType> types) {
                                          return std::ranges::equal(types, candidates);
                                        }) -
                           class_types.begin());
      if (c == static_cast<int>(class_types.size())) class_types.push_back(candidates);
    }
    class_of[n] = static_cast<std::size_t>(c);
  }

  // Ready key: the priority (depth by default, or negated mobility:
  // least slack first), biased to unsigned, above the inverted node
  // index. A larger key issues first: highest priority, ties by program
  // order.
  const bool by_mobility = options.priority == SchedulerOptions::Priority::kMobility;
  const std::vector<std::uint32_t> mobility =
      by_mobility ? Mobility(dfg, lib) : std::vector<std::uint32_t>{};
  std::vector<std::uint64_t> key(dfg.size());
  for (std::size_t n = 0; n < dfg.size(); ++n) {
    const int priority = by_mobility ? -static_cast<int>(mobility[n]) : dfg.nodes[n].depth;
    const std::uint32_t biased = static_cast<std::uint32_t>(priority) ^ 0x8000'0000u;
    key[n] = std::uint64_t{biased} << 32 | ~static_cast<std::uint32_t>(n);
  }
  auto node_of = [](std::uint64_t k) -> std::size_t { return ~static_cast<std::uint32_t>(k); };

  // Combinational delay accumulated within an op's final control step
  // (for chaining).
  std::vector<double> chain_delay(dfg.size(), 0.0);

  // Checks whether node n may start at `step`, given scheduled preds.
  // Returns the accumulated chain delay at n's step, or a negative
  // value if not allowed.
  auto admissible = [&](std::size_t n, std::uint32_t step, double own_delay) -> double {
    double chained = 0.0;
    for (std::size_t p : dfg.nodes[n].preds) {
      const ScheduledOp& sp = sched.ops[p];
      const std::uint32_t finish = sp.step + static_cast<std::uint32_t>(sp.latency);
      if (step >= finish) continue;  // pred result registered
      if (!options.enable_chaining) return -1.0;
      // Chaining: only through single-cycle preds in the same step.
      if (sp.latency != 1 || step != sp.step) return -1.0;
      chained = std::max(chained, chain_delay[p]);
    }
    const double total = chained + own_delay;
    if (chained > 0.0 && total > period) return -1.0;
    return total;
  };

  // Ready structures. `waiting` is a min-heap of (data-ready step,
  // node); `ready[c]` is class c's max-heap of data-ready ops' keys;
  // `just_ready` lists, in order, the ops whose last predecessor was
  // placed in the current step.
  std::vector<std::pair<std::uint32_t, std::size_t>> waiting;
  std::vector<std::vector<std::uint64_t>> ready(class_types.size());
  std::vector<std::size_t> just_ready;
  std::vector<int> unscheduled_preds(dfg.size());
  for (std::size_t n = 0; n < dfg.size(); ++n) {
    unscheduled_preds[n] = static_cast<int>(dfg.nodes[n].preds.size());
    if (unscheduled_preds[n] == 0) waiting.emplace_back(0, n);
  }
  std::make_heap(waiting.begin(), waiting.end(), std::greater<>());

  std::size_t remaining = dfg.size();
  std::uint32_t makespan = 0;

  // Places n on its first candidate type that admits it at `step` and
  // has a free instance, and releases its successors. False if none.
  auto try_place = [&](std::size_t n, std::uint32_t step) -> bool {
    for (ResourceType t : class_types[class_of[n]]) {
      const double own_delay = min_cycle[static_cast<std::size_t>(t)];
      const double delay_ok = admissible(n, step, own_delay);
      // Data not ready, or the chain would exceed the period with this
      // (slower) resource — a faster candidate might still fit.
      if (delay_ok < 0.0) continue;
      std::uint32_t* inst = free_instance(t, step);
      if (inst == nullptr) continue;
      const Cycles lat = latency[static_cast<std::size_t>(t)];
      *inst = step + static_cast<std::uint32_t>(lat);
      ScheduledOp& so = sched.ops[n];
      so.node = n;
      so.step = step;
      so.type = t;
      so.latency = lat;
      chain_delay[n] = delay_ok;
      if (delay_ok > own_delay) ++sched.chained_ops;
      makespan = std::max(makespan, step + static_cast<std::uint32_t>(lat));
      --remaining;
      for (std::size_t s : dfg.nodes[n].succs) {
        if (--unscheduled_preds[s] == 0) just_ready.push_back(s);
      }
      return true;
    }
    return false;
  };

  for (std::uint32_t step = 0; remaining > 0; ++step) {
    CheckCancel(options.cancel, "list schedule");
    LOPASS_CHECK(step < 4'000'000,
                 "list scheduler iteration cap (4000000 steps) exceeded without "
                 "scheduling every op (resource set too small or cyclic DFG?)");
    while (!waiting.empty() && waiting.front().first <= step) {
      std::pop_heap(waiting.begin(), waiting.end(), std::greater<>());
      const std::size_t n = waiting.back().second;
      auto& heap = ready[class_of[n]];
      heap.push_back(key[n]);
      std::push_heap(heap.begin(), heap.end());
      waiting.pop_back();
    }

    // Issue the best data-ready op among the classes with a free
    // instance of some candidate type, until no such class is left.
    for (;;) {
      std::vector<std::uint64_t>* best = nullptr;
      for (std::size_t c = 0; c < ready.size(); ++c) {
        if (ready[c].empty()) continue;
        if (best != nullptr && ready[c].front() < best->front()) continue;
        const bool has_free = std::any_of(
            class_types[c].begin(), class_types[c].end(),
            [&](ResourceType t) { return free_instance(t, step) != nullptr; });
        if (has_free) best = &ready[c];
      }
      if (best == nullptr) break;
      std::pop_heap(best->begin(), best->end());
      const std::size_t n = node_of(best->back());
      best->pop_back();
      const bool placed = try_place(n, step);
      LOPASS_CHECK(placed, "a data-ready op found no free instance");
    }

    // With chaining, ops made ready in this step may issue in it too:
    // each is tried once, in the order it became ready. The rest wait
    // until their last predecessor's result is registered.
    for (std::size_t i = 0; i < just_ready.size(); ++i) {
      const std::size_t n = just_ready[i];
      if (options.enable_chaining && try_place(n, step)) continue;
      std::uint32_t data_ready = 0;
      for (std::size_t p : dfg.nodes[n].preds) {
        data_ready = std::max(
            data_ready, sched.ops[p].step + static_cast<std::uint32_t>(sched.ops[p].latency));
      }
      waiting.emplace_back(data_ready, n);
      std::push_heap(waiting.begin(), waiting.end(), std::greater<>());
    }
    just_ready.clear();
  }

  sched.num_steps = std::max(makespan, 1u);
  return sched;
}

}  // namespace lopass::sched
