#include "cache/cache_sim.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/prng.h"
#include "power/tech_library.h"

namespace lopass::cache {
namespace {

using power::CacheGeometry;

CacheSim MakeDm() {
  return CacheSim(CacheGeometry{256, 16, 1, 32}, WritePolicy::kWriteBackAllocate);
}

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c = MakeDm();
  EXPECT_FALSE(c.Access(0x100, false));
  EXPECT_TRUE(c.Access(0x100, false));
  EXPECT_TRUE(c.Access(0x104, false));  // same line
  EXPECT_EQ(c.stats().read_misses, 1u);
  EXPECT_EQ(c.stats().read_hits, 2u);
  EXPECT_EQ(c.stats().line_fills, 1u);
}

TEST(CacheSim, ConflictMissesInDirectMapped) {
  CacheSim c = MakeDm();  // 16 sets of 16B
  // Two addresses that map to the same set (differ by cache size).
  c.Access(0x000, false);
  c.Access(0x100, false);  // evicts 0x000
  EXPECT_FALSE(c.Access(0x000, false));
  EXPECT_EQ(c.stats().read_misses, 3u);
}

TEST(CacheSim, TwoWayAssociativityAvoidsThatConflict) {
  CacheSim c(CacheGeometry{256, 16, 2, 32}, WritePolicy::kWriteBackAllocate);
  c.Access(0x000, false);
  c.Access(0x100, false);
  EXPECT_TRUE(c.Access(0x000, false));
  EXPECT_TRUE(c.Access(0x100, false));
}

TEST(CacheSim, LruEviction) {
  CacheSim c(CacheGeometry{64, 16, 2, 32}, WritePolicy::kWriteBackAllocate);  // 2 sets
  // Fill both ways of set 0, touch the first again, add a third line:
  // the second (least recently used) must be evicted.
  c.Access(0x00, false);   // set 0, tag A
  c.Access(0x40, false);   // set 0, tag B
  c.Access(0x00, false);   // touch A
  c.Access(0x80, false);   // set 0, tag C -> evicts B
  EXPECT_TRUE(c.Access(0x00, false));
  EXPECT_FALSE(c.Access(0x40, false));
}

TEST(CacheSim, WritebackOnDirtyEviction) {
  CacheSim c = MakeDm();
  c.Access(0x000, true);   // write miss, allocate, dirty
  c.Access(0x100, false);  // evicts dirty line
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(CacheSim, CleanEvictionDoesNotWriteBack) {
  CacheSim c = MakeDm();
  c.Access(0x000, false);
  c.Access(0x100, false);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(CacheSim, WriteThroughNoAllocate) {
  CacheSim c(CacheGeometry{256, 16, 1, 32}, WritePolicy::kWriteThroughNoAllocate);
  c.Access(0x40, true);                  // write miss: no allocation
  EXPECT_FALSE(c.Access(0x40, false));   // still a read miss
  EXPECT_TRUE(c.Access(0x40, true));     // write hit: stays clean
  EXPECT_EQ(c.stats().write_misses, 1u);
  EXPECT_EQ(c.stats().write_hits, 1u);
  EXPECT_EQ(c.stats().line_fills, 1u);   // only from the read miss
  c.Access(0x140, false);                // evicts the line: no writeback
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(CacheSim, EnergyAccumulatesPerEvent) {
  const power::CacheEnergyModel model(CacheGeometry{256, 16, 1, 32},
                                      power::TechLibrary::Cmos6().params());
  CacheSim c = MakeDm();
  c.Access(0x0, false);  // miss: read + fill
  const Energy e1 = c.TotalEnergy(model);
  c.Access(0x0, false);  // hit: read only
  const Energy e2 = c.TotalEnergy(model);
  EXPECT_GT(e2, e1);
  EXPECT_NEAR((e2 - e1).joules, model.read_hit_energy().joules, 1e-18);
}

// A naive LRU reference: per set, a vector of resident lines scanned
// linearly. CacheSim must report the same hit/miss and the same stats
// after every access of seeded random traces, across associativities
// and both write policies. The traces mix reads and writes and contain
// runs of accesses to one line, so CacheSim's same-line fast path runs
// back to back, including right after a write miss that allocated
// nothing.
class ReferenceLru {
 public:
  ReferenceLru(CacheGeometry g, WritePolicy policy)
      : g_(g), policy_(policy), sets_(g.num_sets()) {}

  bool Access(std::uint32_t address, bool is_write) {
    ++tick_;
    const std::uint32_t line = address / g_.line_bytes;
    std::vector<Entry>& set = sets_[line % sets_.size()];
    const std::uint32_t tag = line / static_cast<std::uint32_t>(sets_.size());
    const bool write_back = policy_ == WritePolicy::kWriteBackAllocate;
    for (Entry& e : set) {
      if (e.tag == tag) {
        e.stamp = tick_;
        if (is_write) {
          ++stats.write_hits;
          e.dirty = e.dirty || write_back;
        } else {
          ++stats.read_hits;
        }
        return true;
      }
    }
    ++(is_write ? stats.write_misses : stats.read_misses);
    if (is_write && !write_back) return false;
    ++stats.line_fills;
    const Entry fresh{tag, is_write, tick_};
    if (set.size() < g_.associativity) {
      set.push_back(fresh);
      return false;
    }
    Entry* lru = &set.front();
    for (Entry& e : set) {
      if (e.stamp < lru->stamp) lru = &e;
    }
    if (lru->dirty) ++stats.writebacks;
    *lru = fresh;
    return false;
  }

  CacheStats stats;

 private:
  struct Entry {
    std::uint32_t tag;
    bool dirty;
    std::uint64_t stamp;
  };
  CacheGeometry g_;
  WritePolicy policy_;
  std::vector<std::vector<Entry>> sets_;
  std::uint64_t tick_ = 0;
};

void ExpectSameStats(const CacheStats& a, const CacheStats& b) {
  ASSERT_EQ(a.read_hits, b.read_hits);
  ASSERT_EQ(a.read_misses, b.read_misses);
  ASSERT_EQ(a.write_hits, b.write_hits);
  ASSERT_EQ(a.write_misses, b.write_misses);
  ASSERT_EQ(a.writebacks, b.writebacks);
  ASSERT_EQ(a.line_fills, b.line_fills);
}

TEST(CacheSim, MatchesANaiveLruReferenceAfterEveryAccess) {
  // 256 B caches: 1 to 8 ways of 16-byte lines, a single set (fully
  // associative: no index bits), and 32- and 64-byte lines.
  const CacheGeometry geometries[] = {
      {256, 16, 1, 32}, {256, 16, 2, 32}, {256, 16, 4, 32}, {256, 16, 8, 32},
      {256, 16, 16, 32}, {256, 32, 1, 32}, {256, 32, 2, 32}, {256, 32, 8, 32},
      {256, 64, 1, 32}, {256, 64, 2, 32}, {256, 64, 4, 32},
  };
  for (const CacheGeometry& g : geometries) {
    for (const WritePolicy policy :
         {WritePolicy::kWriteBackAllocate, WritePolicy::kWriteThroughNoAllocate}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(std::to_string(g.associativity) + " ways of " +
                     std::to_string(g.line_bytes) + " B, policy " +
                     std::to_string(static_cast<int>(policy)) + ", seed " +
                     std::to_string(seed));
        CacheSim sim(g, policy);
        ReferenceLru ref(g, policy);
        Prng rng(seed * 7919 + g.associativity * 64 + g.line_bytes);
        for (int i = 0; i < 4000;) {
          // A run of 1-6 accesses to one line (within 4x the capacity,
          // so sets conflict), each a read or a write.
          const std::uint32_t line = static_cast<std::uint32_t>(rng.next_below(4 * g.num_lines()));
          const int run = 1 + static_cast<int>(rng.next_below(6));
          for (int k = 0; k < run; ++k, ++i) {
            const std::uint32_t addr =
                line * g.line_bytes + 4 * static_cast<std::uint32_t>(rng.next_below(g.line_bytes / 4));
            const bool is_write = rng.next_below(3) == 0;
            ASSERT_EQ(sim.Access(addr, is_write), ref.Access(addr, is_write)) << "access " << i;
            ExpectSameStats(sim.stats(), ref.stats);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// Parameterized sweep over geometries and policies: structural
// invariants that must hold for any access stream.
class CacheSimSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, int>> {};

TEST_P(CacheSimSweep, InvariantsUnderRandomTraffic) {
  const auto [capacity, assoc, policy] = GetParam();
  CacheSim c(CacheGeometry{capacity, 16, assoc, 32},
             static_cast<WritePolicy>(policy));
  Prng rng(capacity * 131 + assoc);
  std::uint64_t accesses = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t addr = static_cast<std::uint32_t>(rng.next_below(8192)) & ~3u;
    c.Access(addr, rng.next_below(4) == 0);
    ++accesses;
  }
  const CacheStats& s = c.stats();
  EXPECT_EQ(s.accesses(), accesses);
  EXPECT_EQ(s.read_hits + s.read_misses + s.write_hits + s.write_misses, accesses);
  // Fills never exceed misses.
  EXPECT_LE(s.line_fills, s.misses());
  // Writebacks only under write-back policy.
  if (static_cast<WritePolicy>(policy) == WritePolicy::kWriteThroughNoAllocate) {
    EXPECT_EQ(s.writebacks, 0u);
  }
  EXPECT_GE(s.miss_rate(), 0.0);
  EXPECT_LE(s.miss_rate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSimSweep,
    ::testing::Combine(::testing::Values(256u, 1024u, 4096u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(0, 1)));

// A bigger cache can only reduce misses on the same (read-only) trace.
TEST(CacheSim, BiggerCacheNeverMissesMoreOnReadTrace) {
  Prng rng(99);
  std::vector<std::uint32_t> trace;
  for (int i = 0; i < 30000; ++i) {
    // Zipf-ish locality: mostly small working set with occasional far
    // references.
    const bool local = rng.next_below(10) < 8;
    trace.push_back((local ? rng.next_below(1024) : rng.next_below(65536)) & ~3u);
  }
  std::uint64_t prev_misses = ~0ull;
  for (std::uint32_t cap : {512u, 2048u, 8192u, 32768u}) {
    CacheSim c(CacheGeometry{cap, 16, 1, 32}, WritePolicy::kWriteBackAllocate);
    for (std::uint32_t a : trace) c.Access(a, false);
    EXPECT_LE(c.stats().misses(), prev_misses) << cap;
    prev_misses = c.stats().misses();
  }
}

}  // namespace
}  // namespace lopass::cache
