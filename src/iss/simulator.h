#pragma once

// Cycle-level system simulator: SL32 µP core + I-cache + D-cache +
// main memory + shared bus (the architecture of Fig. 2a).
//
// This is the paper's "Core Energy Estimation" block (Fig. 5): an
// instruction set simulator with attached per-instruction energy
// calculation [12], feeding trace-driven cache simulators and the
// analytical memory/bus energy models.
//
// It works in two halves. Simulator::Execute runs the program once,
// functionally, and records a compact Trace of its path and data
// addresses. The accounting pass (iss/accounting.h) prices a trace
// under a partition: blocks that the partitioner mapped to the ASIC
// core still execute (the ASIC performs their computation), but their
// instruction fetches, data accesses, cycles and energy are not charged
// to the µP core or its caches, and cluster entry/exit triggers the
// additional shared-memory transfers of section 3.3 (the µP
// deposits/reads back data; Fig. 2a bus scheme). A partition changes no
// executed path and no address, so one trace prices every partition.
// The ASIC core's own cycles/energy are modeled by asic/ and added by
// the partition evaluator in core/.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_sim.h"
#include "common/units.h"
#include "ir/module.h"
#include "isa/isa.h"
#include "iss/energy_model.h"
#include "power/cache_energy.h"
#include "power/tech_library.h"

namespace lopass::iss {

// Cache + memory configuration of one system variant. The paper's
// footnote 4: the standard cores "have to be adapted efficiently (e.g.
// size of memory, size of caches, cache policy etc.) according to the
// particular hw/sw partitioning chosen" — hence a value type that a
// partition can override.
struct SystemConfig {
  power::CacheGeometry icache{2048, 16, 1, 32};
  power::CacheGeometry dcache{2048, 16, 1, 32};
  cache::WritePolicy dcache_policy = cache::WritePolicy::kWriteBackAllocate;
  std::uint32_t memory_bytes = 256 * 1024;
};

// Which blocks run on the ASIC core. Cluster indexes are dense ids
// assigned by the partitioner.
struct HwPartition {
  // block_cluster[fn][block] = cluster index, or -1 for software.
  std::vector<std::vector<int>> block_cluster;
  struct ClusterIo {
    // Additional shared-memory transfer words at cluster entry (µP ->
    // mem, Fig. 3 step 1/2) and exit (mem -> µP, step 3/4).
    std::uint32_t entry_words = 0;
    std::uint32_t exit_words = 0;
    bool operator==(const ClusterIo&) const = default;
  };
  std::vector<ClusterIo> clusters;

  bool operator==(const HwPartition&) const = default;

  bool empty() const { return clusters.empty(); }
};

// Energy of each core in the system (one Table 1 row-half).
struct CoreEnergies {
  Energy up_core;
  Energy icache;
  Energy dcache;
  Energy mem;
  Energy bus;
  Energy asic_core;  // no run sets it; core::PartitionResult::ToRow sets the row's

  // Summed in the order of the report's columns, which the journal's
  // energies and saving depend on bit for bit.
  Energy total() const { return icache + dcache + mem + bus + up_core + asic_core; }
};

// Per-block attribution of software cost, used by the partitioner to
// estimate E_µP,c_i (Fig. 1 line 12) without re-simulating.
struct BlockCost {
  Cycles cycles = 0;
  Energy energy;
  std::uint64_t instrs = 0;
  std::array<std::uint64_t, kNumUpResources> active_cycles{};
  // How often the block was entered, on the µP or on the ASIC core:
  // the #ex_times of Fig. 4 (footnote 14), profiled by this run.
  std::uint64_t entries = 0;
};

// Eq. 4 on the µP: the mean over the averaged resources of their active
// cycles over `cycles`; 0 when `cycles` is 0.
double AverageUtilization(const std::array<std::uint64_t, kNumUpResources>& active_cycles,
                          Cycles cycles);

struct SimResult {
  std::int64_t return_value = 0;
  std::uint64_t instr_count = 0;      // µP instructions executed (SW only)
  Cycles up_cycles = 0;               // µP busy cycles incl. stalls
  CoreEnergies energy;
  cache::CacheStats icache_stats;
  cache::CacheStats dcache_stats;
  // µP resource utilization (Eq. 1/4 applied to the µP core).
  std::array<std::uint64_t, kNumUpResources> active_cycles{};
  double up_utilization = 0.0;
  // Attribution per (function, block).
  std::vector<std::vector<BlockCost>> block_costs;
  // Cluster boundary event counts (partitioned runs).
  std::vector<std::uint64_t> cluster_entries;
  std::uint64_t transfer_words_in = 0;   // µP -> memory at entries
  std::uint64_t transfer_words_out = 0;  // memory -> µP at exits
  // Memory traffic in words (fills, writebacks, boundary transfers).
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;

  const BlockCost& block_cost(ir::FunctionId fn, ir::BlockId b) const {
    return block_costs[static_cast<std::size_t>(fn)][static_cast<std::size_t>(b)];
  }
  // Software cost of a set of blocks, summed in the order given (so
  // every caller's energy sum rounds the same way). Entries are not
  // summed.
  BlockCost CostOfBlocks(
      const std::vector<std::pair<ir::FunctionId, ir::BlockId>>& blocks) const;
  // Average µP utilization restricted to a set of blocks (the paper's
  // U_µP^core for a candidate cluster).
  double UtilizationOfBlocks(
      const std::vector<std::pair<ir::FunctionId, ir::BlockId>>& blocks) const {
    const BlockCost cost = CostOfBlocks(blocks);
    return AverageUtilization(cost.active_cycles, cost.cycles);
  }
};

// One execution of a program, compactly: the path as one bit per
// conditional-branch outcome, the data addresses as the loads and
// stores that break their own pc's last stride (StridePredictor). Calls
// and returns are rebuilt from the code.
struct Trace {
  std::int64_t return_value = 0;
  std::uint32_t entry_pc = 0;
  // Bit i % 64 of word i / 64: conditional branch i was taken.
  std::vector<std::uint64_t> taken;
  // For each load or store whose address differs from its pc's
  // prediction, two LEB128 numbers: how many loads and stores ran
  // since the previous such one, then the zigzag-coded 32-bit
  // difference between the address and the prediction.
  std::vector<std::uint8_t> strides;

  std::size_t bytes() const { return taken.size() * sizeof(std::uint64_t) + strides.size(); }
};

// A load or store is predicted at its pc's last address plus its last
// stride. Both wrap at 32 bits, so every address is the prediction
// plus some 32-bit difference.
struct StridePredictor {
  std::uint32_t last = 0;
  std::uint32_t stride = 0;

  std::uint32_t Predict() const { return last + stride; }
  void Update(std::uint32_t address) {
    stride = address - last;
    last = address;
  }
};

class Simulator {
 public:
  Simulator(const ir::Module& module, const isa::SlProgram& program,
            SystemConfig config,
            const power::TechLibrary& lib = power::TechLibrary::Cmos6(),
            const TiwariModel& energy = TiwariModel::Sparclite());

  // Pre-run data initialization: symbol initial values, then the
  // workload's scalars and arrays. Setting an unknown global, an array
  // as a scalar, or a scalar or too many values as an array throws
  // lopass::Error.
  void Reset();
  void SetScalar(const std::string& name, std::int64_t value);
  void FillArray(const std::string& name, std::span<const std::int64_t> values);
  std::int64_t GetScalar(const std::string& name) const;

  // Runs `fn(args...)` to completion and returns its trace. Throws
  // lopass::Error on a run-time fault: an element access outside its
  // array, a data access outside memory, division or modulo by zero,
  // or more than `max_instrs` instructions.
  Trace Execute(const std::string& fn, std::span<const std::int64_t> args = {},
                std::uint64_t max_instrs = 2'000'000'000);

  // Execute, then the accounting pass under `partition` (empty = all
  // software) and this simulator's configuration. Hits the `sim` fault
  // site first.
  SimResult Run(const std::string& fn, std::span<const std::int64_t> args = {},
                const HwPartition& partition = HwPartition{},
                std::uint64_t max_instrs = 2'000'000'000);

 private:
  ir::SymbolId FindGlobal(const std::string& name) const;

  const ir::Module& module_;
  const isa::SlProgram& program_;
  SystemConfig config_;
  const power::TechLibrary& lib_;
  const TiwariModel& energy_;
  std::vector<std::int64_t> memory_;
};

}  // namespace lopass::iss
