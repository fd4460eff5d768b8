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
    : geometry_(geometry), policy_(policy) {
  const std::uint32_t sets = geometry_.num_sets();
  LOPASS_CHECK(sets > 0, "cache must have at least one set");
  lines_.assign(static_cast<std::size_t>(sets) * geometry_.associativity, Line{});
  offset_bits_ = Log2(geometry_.line_bytes);
  index_bits_ = Log2(sets);
}

void CacheSim::Reset() {
  for (Line& l : lines_) l = Line{};
  stats_ = CacheStats{};
  tick_ = 0;
  words_from_mem_ = 0;
  words_to_mem_ = 0;
}

bool CacheSim::Access(std::uint32_t address, bool is_write) {
  ++tick_;
  const std::uint32_t set = (address >> offset_bits_) & ((1u << index_bits_) - 1u);
  const std::uint32_t tag = address >> (offset_bits_ + index_bits_);
  Line* base = &lines_[static_cast<std::size_t>(set) * geometry_.associativity];
  const std::uint32_t words_per_line = geometry_.line_bytes / 4;

  // Lookup.
  for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == tag) {
      l.lru = tick_;
      if (is_write) {
        ++stats_.write_hits;
        if (policy_ == WritePolicy::kWriteBackAllocate) {
          l.dirty = true;
        } else {
          words_to_mem_ += 1;  // write-through
        }
      } else {
        ++stats_.read_hits;
      }
      return true;
    }
  }

  // Miss.
  if (is_write) {
    ++stats_.write_misses;
  } else {
    ++stats_.read_misses;
  }

  if (is_write && policy_ == WritePolicy::kWriteThroughNoAllocate) {
    words_to_mem_ += 1;
    return false;  // no allocation
  }

  // Choose a victim: an invalid line first, else the least recently
  // used one.
  Line* victim = nullptr;
  for (std::uint32_t w = 0; w < geometry_.associativity; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
  }
  if (victim == nullptr) {
    victim = base;
    for (std::uint32_t w = 1; w < geometry_.associativity; ++w) {
      if (base[w].lru < victim->lru) victim = &base[w];
    }
  }
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    words_to_mem_ += words_per_line;
  }
  victim->valid = true;
  victim->dirty = is_write && policy_ == WritePolicy::kWriteBackAllocate;
  victim->tag = tag;
  victim->lru = tick_;
  ++stats_.line_fills;
  words_from_mem_ += words_per_line;
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
