#include "cache/cache_sim.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(c.words_written_to_memory(), 4u);  // one 16B line
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
  c.Access(0x40, true);                  // write hit: still goes through
  EXPECT_EQ(c.words_written_to_memory(), 2u);
  EXPECT_EQ(c.stats().line_fills, 1u);   // only from the read miss
}

TEST(CacheSim, ResetClearsEverything) {
  CacheSim c = MakeDm();
  c.Access(0x0, true);
  c.Reset();
  EXPECT_EQ(c.stats().accesses(), 0u);
  EXPECT_FALSE(c.Access(0x0, false));  // cold again
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
