// Pinned block DFGs: a 64-bit FNV-1a hash of every node's instr_index,
// op, preds in order, succs in order and depth, for
//   - every block of every function of the six applications, compiled
//     plainly, with loops unrolled by 4, and through the standard IR
//     passes,
//   - the seeded loop programs of tests/program_gen.h, and
//   - the generated straight-line blocks of about 3K operations that
//     test_schedule_fingerprint schedules,
// compared against tests/data/dfg_fingerprints.txt. Any change to
// sched::BuildBlockDfg that moves a single edge, reorders a pred or
// succ list or changes a depth fails here. A failure prints every
// computed fingerprint in the fixture's format; copy them over only
// after an intentional change to the DFGs.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "apps/app.h"
#include "common/prng.h"
#include "dsl/lower.h"
#include "fingerprint.h"
#include "opt/passes.h"
#include "program_gen.h"
#include "sched/dfg.h"

namespace lopass::sched {
namespace {

using fingerprint::Fnv;

void AddDfg(Fnv& h, const BlockDfg& g) {
  h.Add(g.size());
  for (const DfgNode& node : g.nodes) {
    h.Add(node.instr_index);
    h.Add(static_cast<std::uint64_t>(node.op));
    h.Add(node.preds.size());
    for (std::size_t p : node.preds) h.Add(p);
    h.Add(node.succs.size());
    for (std::size_t s : node.succs) h.Add(s);
    h.Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(node.depth)));
  }
}

// One fingerprint over every block of every function of `module`.
std::uint64_t ModuleFingerprint(const ir::Module& module) {
  Fnv h;
  h.Add(module.num_functions());
  for (std::size_t f = 0; f < module.num_functions(); ++f) {
    const ir::Function& fn = module.function(static_cast<ir::FunctionId>(f));
    h.Add(fn.blocks.size());
    for (const ir::BasicBlock& b : fn.blocks) AddDfg(h, BuildBlockDfg(b));
  }
  return h.value();
}

void ExpectPinned(const std::string& prefix, const std::map<std::string, std::uint64_t>& actual) {
  fingerprint::ExpectPinned("dfg_fingerprints.txt", prefix, actual);
}

TEST(DfgFingerprint, SixAppsEveryBlockMatchesPinned) {
  std::map<std::string, std::uint64_t> actual;
  for (const apps::Application& app : apps::AllApplications()) {
    actual["app/" + app.name + "/plain"] = ModuleFingerprint(dsl::Compile(app.dsl_source).module);
    actual["app/" + app.name + "/unroll4"] =
        ModuleFingerprint(dsl::Compile(app.dsl_source, 4).module);
    dsl::LoweredProgram optimized = dsl::Compile(app.dsl_source);
    opt::RunStandardPasses(optimized.module);
    actual["app/" + app.name + "/opt"] = ModuleFingerprint(optimized.module);
  }
  ExpectPinned("app/", actual);
}

TEST(DfgFingerprint, GeneratedProgramsMatchPinned) {
  std::map<std::string, std::uint64_t> actual;
  for (int seed = 0; seed < 40; ++seed) {
    Prng rng(static_cast<std::uint64_t>(seed) * 0x2545f4914f6cdd1dull + 5);
    dsl::LoweredProgram p = dsl::Compile(core::GenerateProgram(rng));
    actual["gen/" + std::to_string(seed) + "/plain"] = ModuleFingerprint(p.module);
    opt::RunStandardPasses(p.module);
    actual["gen/" + std::to_string(seed) + "/opt"] = ModuleFingerprint(p.module);
  }
  ExpectPinned("gen/", actual);
}

TEST(DfgFingerprint, GeneratedBigBlocksMatchPinned) {
  std::map<std::string, std::uint64_t> actual;
  for (int mix = 0; mix < 3; ++mix) {
    Prng rng(static_cast<std::uint64_t>(mix) + 1000);
    const dsl::LoweredProgram p = dsl::Compile(fingerprint::BigBlockSource(rng, 900, mix));
    actual["big/" + std::to_string(mix)] = ModuleFingerprint(p.module);
  }
  ExpectPinned("big/", actual);
}

}  // namespace
}  // namespace lopass::sched
