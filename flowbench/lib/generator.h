#pragma once

// Seeded generator of big-block DSL programs for the partition-bigblock
// workload: one loop (trip count 8) whose body is a single basic block
// of straight-line assignments, so the partitioner's cost is dominated
// by list-scheduling one large block DFG per designer resource set.

#include <cstdint>
#include <string>

namespace flowbench {

// Statements in the loop body; about 3.2 scheduled operations each.
inline constexpr int kBigBlockStatements = 1000;

// DSL text of one program. Byte-identical for equal arguments. Only
// operators every default designer resource set implements are used
// (no multiply or divide), so every set schedules the whole block.
std::string GenerateBigBlock(std::uint64_t seed, int statements = kBigBlockStatements);

// Seed of pool program `index` for the benchmark seed `seed`.
std::uint64_t PoolSeed(std::uint64_t seed, int index);

}  // namespace flowbench
