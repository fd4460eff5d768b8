#include "iss/energy_model.h"

namespace lopass::iss {

using isa::InstrClass;

namespace {
constexpr std::uint32_t Bit(UpResource r) { return 1u << static_cast<int>(r); }
}  // namespace

TiwariModel::TiwariModel() : stall_(Energy::from_nanojoules(6.8)) {
  auto set = [&](InstrClass c, double nj, std::uint32_t mask) {
    base_[static_cast<std::size_t>(c)] = Energy::from_nanojoules(nj);
    active_[static_cast<std::size_t>(c)] = mask;
  };
  // Base energies for a ~0.4W @ 25MHz 0.8u core (≈13nJ/instr average).
  set(InstrClass::kAlu,    12.8, Bit(UpResource::kAlu) | Bit(UpResource::kRegFile));
  set(InstrClass::kShift,  13.4, Bit(UpResource::kShifter) | Bit(UpResource::kRegFile));
  set(InstrClass::kMul,    27.0, Bit(UpResource::kMultiplier) | Bit(UpResource::kRegFile));
  set(InstrClass::kDiv,    58.0, Bit(UpResource::kDivider) | Bit(UpResource::kRegFile));
  set(InstrClass::kLoad,   16.2, Bit(UpResource::kMemPort) | Bit(UpResource::kAlu) |
                                 Bit(UpResource::kRegFile));
  set(InstrClass::kStore,  15.6, Bit(UpResource::kMemPort) | Bit(UpResource::kAlu) |
                                 Bit(UpResource::kRegFile));
  set(InstrClass::kBranch, 12.1, Bit(UpResource::kAlu) | Bit(UpResource::kRegFile));
  set(InstrClass::kJump,   10.5, Bit(UpResource::kRegFile));
  set(InstrClass::kCall,   14.0, Bit(UpResource::kMemPort) | Bit(UpResource::kRegFile));
  set(InstrClass::kNop,     8.9, 0);

  // Circuit-state overhead matrix (nJ). Baseline: 0.15 on the diagonal
  // (same circuit state), 1.2 off-diagonal; pairs that swing large
  // functional units cost more, pairs within the load/store unit less.
  set_overheads(Energy::from_nanojoules(0.15), Energy::from_nanojoules(1.2));
  auto pair = [&](InstrClass a, InstrClass b, double nj) {
    set_pair_overhead(a, b, Energy::from_nanojoules(nj));
  };
  pair(InstrClass::kAlu, InstrClass::kMul, 1.8);
  pair(InstrClass::kAlu, InstrClass::kDiv, 2.2);
  pair(InstrClass::kShift, InstrClass::kMul, 1.9);
  pair(InstrClass::kMul, InstrClass::kDiv, 2.6);
  pair(InstrClass::kLoad, InstrClass::kStore, 0.6);
  pair(InstrClass::kAlu, InstrClass::kLoad, 0.9);
  pair(InstrClass::kAlu, InstrClass::kStore, 0.9);
  pair(InstrClass::kBranch, InstrClass::kAlu, 0.7);
  pair(InstrClass::kNop, InstrClass::kNop, 0.05);
}

const TiwariModel& TiwariModel::Sparclite() {
  static const TiwariModel m;
  return m;
}

TiwariModel& TiwariModel::set_overheads(Energy same_class, Energy switch_class) {
  for (std::size_t a = 0; a < overhead_.size(); ++a) {
    for (std::size_t b = 0; b < overhead_.size(); ++b) {
      overhead_[a][b] = a == b ? same_class : switch_class;
    }
  }
  return *this;
}

TiwariModel& TiwariModel::set_pair_overhead(isa::InstrClass a, isa::InstrClass b,
                                            Energy e) {
  overhead_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = e;
  overhead_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = e;
  return *this;
}

TiwariModel TiwariModel::ScaledBy(double energy_factor) const {
  TiwariModel out = *this;
  for (Energy& e : out.base_) e *= energy_factor;
  for (auto& row : out.overhead_) {
    for (Energy& e : row) e *= energy_factor;
  }
  out.stall_ *= energy_factor;
  return out;
}

}  // namespace lopass::iss
