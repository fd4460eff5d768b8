#pragma once

// Trace-driven set-associative cache simulator.
//
// Replaces the paper's WARTS-based cache profiler [17]: the instruction
// set simulator feeds it every fetch/data access, and the analytical
// energy model (power/cache_energy.h) converts the resulting access and
// miss counts into the per-core cache energies of Table 1.

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "power/cache_energy.h"

namespace lopass::cache {

enum class WritePolicy : std::uint8_t { kWriteBackAllocate, kWriteThroughNoAllocate };

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t writebacks = 0;   // dirty line evictions
  std::uint64_t line_fills = 0;

  std::uint64_t accesses() const {
    return read_hits + read_misses + write_hits + write_misses;
  }
  std::uint64_t misses() const { return read_misses + write_misses; }
  double miss_rate() const {
    const std::uint64_t a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(a);
  }
};

// Replacement is least recently used, what the era's caches did.
class CacheSim {
 public:
  CacheSim(power::CacheGeometry geometry, WritePolicy policy);

  // Simulates one word access; returns true on hit. Miss bookkeeping
  // (fill, eviction, writeback) is recorded in stats().
  //
  // An access to the line the previous access hit or filled is a hit
  // without a lookup: nothing ran in between, and that line already
  // holds the newest LRU stamp of its set, so re-stamping it would
  // change no replacement decision.
  bool Access(std::uint32_t address, bool is_write) {
    if (address >> offset_bits_ != last_line_) return AccessSlow(address, is_write);
    if (!is_write) {
      ++stats_.read_hits;
    } else {
      ++stats_.write_hits;
      if (policy_ == WritePolicy::kWriteBackAllocate) lines_[last_slot_].dirty = true;
    }
    return true;
  }

  const CacheStats& stats() const { return stats_; }

  // Total energy dissipated inside this cache core for the recorded
  // access stream, under the given energy model.
  Energy TotalEnergy(const power::CacheEnergyModel& model) const;

 private:
  struct Line {
    std::uint64_t stamp = 0;  // last-touch tick; 0 marks an invalid line
    std::uint32_t tag = 0;
    bool dirty = false;
  };
  // No line: compares unequal to every address >> offset_bits_.
  static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

  bool AccessSlow(std::uint32_t address, bool is_write);

  WritePolicy policy_;
  std::uint32_t associativity_ = 0;
  std::uint32_t offset_bits_ = 0;
  std::uint32_t index_bits_ = 0;
  std::uint32_t set_mask_ = 0;
  std::vector<Line> lines_;  // sets * associativity, row-major by set
  std::uint64_t tick_ = 0;
  // The line (address >> offset_bits_) the previous access hit or
  // filled, and its slot; kNoLine after a write miss that allocated
  // nothing.
  std::uint64_t last_line_ = kNoLine;
  std::size_t last_slot_ = 0;
  CacheStats stats_;
};

}  // namespace lopass::cache
