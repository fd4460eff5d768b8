#pragma once

// IR-level reference interpreter.
//
// It executes the behavioral description on a concrete workload and
// records how often every basic block is entered. The flow does not run
// it: the initial ISS run (iss/simulator.h) profiles #ex_times itself
// (BlockCost::entries). The interpreter is the engine the tests compare
// the code generator and the ISS against: return value, final memory
// and block entry counts. Arithmetic goes through ir::EvalPure
// (ir/eval.h), the one evaluator constant folding and the L205/L207
// lint folder share, so every engine computes the same program values.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/module.h"

namespace lopass::interp {

// Per-module execution profile.
struct Profile {
  // block_counts[fn][block] = number of times the block was entered.
  std::vector<std::vector<std::uint64_t>> block_counts;
  // op_counts[fn][block] accumulated dynamic operation count.
  std::uint64_t total_dynamic_ops = 0;
  std::uint64_t call_count = 0;

  std::uint64_t BlockCount(ir::FunctionId fn, ir::BlockId b) const {
    return block_counts[static_cast<std::size_t>(fn)][static_cast<std::size_t>(b)];
  }
};

struct RunResult {
  std::int64_t return_value = 0;
  std::uint64_t steps = 0;  // dynamic operations executed
};

class Interpreter {
 public:
  explicit Interpreter(const ir::Module& module);

  // Direct access to the flat data memory (symbol initial values are
  // applied on construction and by Reset()).
  void Reset();
  void SetScalar(ir::SymbolId sym, std::int64_t value);
  std::int64_t GetScalar(ir::SymbolId sym) const;
  void FillArray(ir::SymbolId sym, std::span<const std::int64_t> values);
  std::int64_t GetArrayElem(ir::SymbolId sym, std::uint32_t index) const;

  // Convenience lookups by name (globals only).
  void SetScalar(const std::string& name, std::int64_t value);
  void FillArray(const std::string& name, std::span<const std::int64_t> values);
  std::int64_t GetScalar(const std::string& name) const;

  // Runs `fn(args...)`; throws lopass::Error on runtime faults
  // (out-of-bounds index, division by zero, step-limit exceeded).
  RunResult Run(const std::string& fn, std::span<const std::int64_t> args = {},
                std::uint64_t max_steps = 500'000'000);

  const Profile& profile() const { return profile_; }

 private:
  std::int64_t Exec(const ir::Function& fn, std::span<const std::int64_t> args);
  std::int64_t Eval(const ir::Operand& op, const std::vector<std::int64_t>& vregs) const;

  const ir::Module& module_;
  std::vector<std::int64_t> memory_;  // one word per 4 bytes of data space
  Profile profile_;
  std::uint64_t step_limit_ = 0;
  std::uint64_t steps_ = 0;
  int call_depth_ = 0;
};

}  // namespace lopass::interp
