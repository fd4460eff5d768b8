#pragma once

// Designer-specified resource sets.
//
// Fig. 1 line 7 iterates over "all sets of resources where the set of
// different resource sets RS is specified by the designer. The designer
// tells the partitioning algorithm how much hardware (#ALUs,
// #multipliers, #shifters, ...) they are willing to spend"; "due to our
// design praxis 3 to 5 sets are given". DefaultDesignerSets() provides
// such reference sets; applications may supply their own.

#include <array>
#include <span>
#include <string>
#include <vector>

#include "ir/opcode.h"
#include "power/tech_library.h"

namespace lopass::sched {

// Maximum number of instances of each resource type the designer is
// willing to spend on one ASIC core.
struct ResourceSet {
  std::string name;
  std::array<int, power::kNumResourceTypes> count{};

  int of(power::ResourceType t) const { return count[static_cast<std::size_t>(t)]; }
  ResourceSet& set(power::ResourceType t, int n) {
    count[static_cast<std::size_t>(t)] = n;
    return *this;
  }
};

// The resource types able to execute an IR operation, sorted by
// increasing size ("sorted according to the increasing size of a
// resource", Fig. 4 line 5) so that the smallest / most energy
// efficient candidate is preferred. Terminators and calls return an
// empty list (handled by the controller / not HW-mappable). The span
// views a static table.
std::span<const power::ResourceType> CandidateResources(ir::Opcode op);

// 4 reference sets modeled after past designs, small to large.
std::vector<ResourceSet> DefaultDesignerSets();

}  // namespace lopass::sched
