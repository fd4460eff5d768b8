#pragma once

// Workload abstraction: how an application's input data ("input stimuli
// pattern", Fig. 5 footnote 18) is installed before a run. The flow's
// engine, iss::Simulator, is adapted to this interface so a single
// workload definition drives the initial (profiling) run and the
// partitioned re-runs; so is interp::Interpreter, the reference engine
// that tests compare the simulator against.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/diag.h"

namespace lopass::core {

// Anything data can be poured into before a run.
class DataTarget {
 public:
  virtual ~DataTarget() = default;
  virtual void SetScalar(const std::string& name, std::int64_t value) = 0;
  virtual void FillArray(const std::string& name, std::span<const std::int64_t> values) = 0;
};

// Binds an execution engine (iss::Simulator, or interp::Interpreter in
// tests) to the DataTarget interface.
template <class Engine>
class EngineTarget : public DataTarget {
 public:
  explicit EngineTarget(Engine& engine) : engine_(engine) {}
  void SetScalar(const std::string& name, std::int64_t value) override {
    engine_.SetScalar(name, value);
  }
  void FillArray(const std::string& name, std::span<const std::int64_t> values) override {
    engine_.FillArray(name, values);
  }

 private:
  Engine& engine_;
};

struct Workload {
  std::string entry = "main";
  std::vector<std::int64_t> args;
  // Called before every run to install input data deterministically.
  std::function<void(DataTarget&)> setup;
};

// A parsed `NAME=KIND:...` array-fill directive (the CLI's --fill).
struct FillSpec {
  std::string name;
  std::vector<std::int64_t> values;
};

// Parses a fill directive of the form
//   NAME=rand:COUNT:LO:HI[:SEED]   uniform values in [LO, HI]
//   NAME=ramp:COUNT[:STEP]         0, STEP, 2*STEP, ...
// Malformed specs (missing '=', unknown kind, non-numeric or
// out-of-range fields, LO > HI, negative COUNT) come back as error
// diagnostics with code "cli.fill" — never an exception or a crash.
Result<FillSpec> ParseFillSpec(std::string_view spec);

}  // namespace lopass::core
