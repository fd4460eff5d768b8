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
//
// A hit is looked up and re-stamped inline in Access; only a miss (the
// victim choice, the fill, the writeback, and a write-through write
// that allocates nothing) is handled out of line, in Miss.
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
    const std::uint32_t line = address >> offset_bits_;
    if (line != last_line_) {
      ++tick_;
      const std::uint32_t tag = line >> index_bits_;
      std::size_t s = static_cast<std::size_t>(line & set_mask_) * associativity_;
      const std::size_t end = s + associativity_;
      // The scan holds no call: with Miss inside it, GCC split the
      // caller on is_write, and random reads and writes (BM_CacheSim)
      // ran half as fast.
      while (s != end && (lines_[s].stamp == 0 || lines_[s].tag != tag)) ++s;
      if (s == end) return Miss(line, is_write);
      lines_[s].stamp = tick_;
      last_line_ = line;
      last_slot_ = s;
    }
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

  // Records a miss of `line`, whose lookup has advanced tick_: counts
  // it, and unless a write-through write allocates nothing, fills the
  // victim line, counting a writeback if it was dirty. Returns false.
  // It scans the set again for the victim: tracking the victim in
  // Access's scan instead cost the flow's direct-mapped sweep ~5%
  // (EXPERIMENTS.md).
  bool Miss(std::uint32_t line, bool is_write);

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
