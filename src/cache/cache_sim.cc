#include "cache/cache_sim.h"

#include "common/error.h"

namespace lopass::cache {

namespace {
std::uint32_t Log2(std::uint32_t x) {
  std::uint32_t r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}
}  // namespace

CacheSim::CacheSim(power::CacheGeometry geometry, WritePolicy policy)
    : policy_(policy), associativity_(geometry.associativity) {
  const std::uint32_t sets = geometry.num_sets();
  LOPASS_CHECK(sets > 0, "cache must have at least one set");
  const std::size_t lines = static_cast<std::size_t>(sets) * associativity_;
  lines_.assign(lines, Line{});
  offset_bits_ = Log2(geometry.line_bytes);
  index_bits_ = Log2(sets);
  set_mask_ = (1u << index_bits_) - 1u;
}

bool CacheSim::Miss(std::uint32_t line, bool is_write) {
  if (is_write) {
    ++stats_.write_misses;
  } else {
    ++stats_.read_misses;
  }
  const bool write_back = policy_ == WritePolicy::kWriteBackAllocate;
  if (is_write && !write_back) {
    last_line_ = kNoLine;
    return false;  // no allocation
  }
  // The victim is the first line with the oldest stamp: an invalid line
  // (stamp 0) first, else the least recently used one.
  const std::size_t base = static_cast<std::size_t>(line & set_mask_) * associativity_;
  std::size_t victim = base;
  for (std::size_t s = base + 1; s < base + associativity_; ++s) {
    if (lines_[s].stamp < lines_[victim].stamp) victim = s;
  }
  Line& v = lines_[victim];
  if (v.stamp != 0 && v.dirty) ++stats_.writebacks;
  v.stamp = tick_;
  v.tag = line >> index_bits_;
  v.dirty = is_write;
  ++stats_.line_fills;
  last_line_ = line;
  last_slot_ = victim;
  return false;
}

Energy CacheSim::TotalEnergy(const power::CacheEnergyModel& model) const {
  Energy e;
  e += model.read_hit_energy() * static_cast<double>(stats_.read_hits + stats_.read_misses);
  e += model.write_hit_energy() * static_cast<double>(stats_.write_hits + stats_.write_misses);
  e += model.line_fill_energy() * static_cast<double>(stats_.line_fills);
  e += model.writeback_energy() * static_cast<double>(stats_.writebacks);
  return e;
}

}  // namespace lopass::cache
