#pragma once

// The reference-engine oracle. The flow executes a workload only on the
// ISS, whose initial run also supplies every block's #ex_times; the IR
// interpreter is the reference it must match. ExpectEnginesAgree runs
// one workload on both, over the plain and the peepholed SL32 program,
// and expects the same return value, the same global scalars and the
// same entry count for every block.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "interp/interpreter.h"
#include "isa/codegen.h"
#include "isa/peephole.h"
#include "iss/simulator.h"

namespace lopass {

// The ISS's BlockCost::entries, shaped like interp::Profile::block_counts.
inline std::vector<std::vector<std::uint64_t>> EntryCounts(const iss::SimResult& r) {
  std::vector<std::vector<std::uint64_t>> counts;
  for (const std::vector<iss::BlockCost>& fn : r.block_costs) {
    counts.emplace_back();
    for (const iss::BlockCost& c : fn) counts.back().push_back(c.entries);
  }
  return counts;
}

inline void ExpectEnginesAgree(const ir::Module& module, const core::Workload& w) {
  interp::Interpreter it(module);
  if (w.setup) {
    core::EngineTarget<interp::Interpreter> t(it);
    w.setup(t);
  }
  const std::int64_t value = it.Run(w.entry, w.args).return_value;
  std::vector<std::pair<std::string, std::int64_t>> globals;
  for (const ir::Symbol& s : module.symbols()) {
    if (s.kind == ir::SymbolKind::kScalar && s.owner == -1) {
      globals.emplace_back(s.name, it.GetScalar(s.id));
    }
  }

  for (const bool peephole : {false, true}) {
    SCOPED_TRACE(peephole ? "peepholed SL32" : "plain SL32");
    isa::SlProgram program = isa::Generate(module);
    if (peephole) isa::Peephole(program);
    iss::Simulator sim(module, program, iss::SystemConfig{});
    if (w.setup) {
      core::EngineTarget<iss::Simulator> t(sim);
      w.setup(t);
    }
    const iss::SimResult r = sim.Run(w.entry, w.args);
    EXPECT_EQ(r.return_value, value);
    std::vector<std::pair<std::string, std::int64_t>> sim_globals;
    for (const auto& [name, unused] : globals) sim_globals.emplace_back(name, sim.GetScalar(name));
    EXPECT_EQ(sim_globals, globals);
    EXPECT_EQ(EntryCounts(r), it.profile().block_counts);
  }
}

}  // namespace lopass
