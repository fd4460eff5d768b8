#include "sched/resource_set.h"

namespace lopass::sched {

using power::ResourceType;

std::span<const ResourceType> CandidateResources(ir::Opcode op) {
  using ir::Opcode;
  // An adder is smaller than a full ALU; prefer it.
  static constexpr ResourceType kAdditive[] = {ResourceType::kAdder, ResourceType::kAlu};
  static constexpr ResourceType kLogic[] = {ResourceType::kAlu};
  // A comparison is a subtraction plus flag logic: it can execute on a
  // dedicated comparator, a plain adder, or the ALU.
  static constexpr ResourceType kCompare[] = {ResourceType::kComparator, ResourceType::kAdder,
                                              ResourceType::kAlu};
  static constexpr ResourceType kShift[] = {ResourceType::kShifter};
  static constexpr ResourceType kMultiply[] = {ResourceType::kMultiplier};
  static constexpr ResourceType kDivide[] = {ResourceType::kDivider};
  static constexpr ResourceType kMemory[] = {ResourceType::kMemoryPort};
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kNeg:
      return kAdditive;
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kNot:
    case Opcode::kMin:
    case Opcode::kMax:
      return kLogic;
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
      return kCompare;
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSar:
      return kShift;
    case Opcode::kMul:
      return kMultiply;
    case Opcode::kDiv:
    case Opcode::kMod:
      return kDivide;
    case Opcode::kLoadElem:
    case Opcode::kStoreElem:
      return kMemory;
    case Opcode::kConst:
    case Opcode::kMov:
    case Opcode::kReadVar:
    case Opcode::kWriteVar:
      // Register transfers are contracted out of the DFG (see
      // sched/dfg.h); they never reach the scheduler.
      return {};
    case Opcode::kCall:
    case Opcode::kRet:
    case Opcode::kBr:
    case Opcode::kCondBr:
      return {};
  }
  return {};
}

std::vector<ResourceSet> DefaultDesignerSets() {
  // Deliberately lean budgets: one instance of each needed type keeps
  // per-instance utilization — and therefore U_R^core — high, which is
  // the premise of the whole approach (§3.1). Wider sets trade
  // utilization for speed and mostly lose on the objective function.
  std::vector<ResourceSet> sets;

  ResourceSet tiny;
  tiny.name = "rs-tiny";
  tiny.set(ResourceType::kAlu, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMemoryPort, 1);
  sets.push_back(tiny);

  ResourceSet small;
  small.name = "rs-small";
  small.set(ResourceType::kAlu, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMultiplier, 1)
      .set(ResourceType::kMemoryPort, 1);
  sets.push_back(small);

  ResourceSet medium;
  medium.name = "rs-medium";
  medium.set(ResourceType::kAlu, 1)
      .set(ResourceType::kAdder, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMultiplier, 1)
      .set(ResourceType::kDivider, 1)
      .set(ResourceType::kMemoryPort, 1);
  sets.push_back(medium);

  ResourceSet large;
  large.name = "rs-large";
  large.set(ResourceType::kAlu, 2)
      .set(ResourceType::kAdder, 2)
      .set(ResourceType::kComparator, 1)
      .set(ResourceType::kShifter, 1)
      .set(ResourceType::kMultiplier, 2)
      .set(ResourceType::kDivider, 1)
      .set(ResourceType::kMemoryPort, 2);
  sets.push_back(large);

  return sets;
}

}  // namespace lopass::sched
