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
  bool Access(std::uint32_t address, bool is_write);

  void Reset();

  const CacheStats& stats() const { return stats_; }
  const power::CacheGeometry& geometry() const { return geometry_; }

  // Total energy dissipated inside this cache core for the recorded
  // access stream, under the given energy model.
  Energy TotalEnergy(const power::CacheEnergyModel& model) const;

  // Words transferred to/from the next memory level (line fills +
  // writebacks + write-throughs); used for memory/bus accounting.
  std::uint64_t words_read_from_memory() const { return words_from_mem_; }
  std::uint64_t words_written_to_memory() const { return words_to_mem_; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint32_t tag = 0;
    std::uint64_t lru = 0;  // last-touch stamp
  };

  power::CacheGeometry geometry_;
  WritePolicy policy_;
  std::vector<Line> lines_;  // sets * assoc, row-major by set
  CacheStats stats_;
  std::uint64_t tick_ = 0;
  std::uint32_t offset_bits_ = 0;
  std::uint32_t index_bits_ = 0;
  std::uint64_t words_from_mem_ = 0;
  std::uint64_t words_to_mem_ = 0;
};

}  // namespace lopass::cache
