#pragma once

// The benchmark's workloads. Each drives lopass in-process through its
// public entry points (runner::RunExplore, dsl::Compile,
// core::Partitioner::Run), one op in flight, every op the same work.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/partitioner.h"
#include "replay.h"

namespace flowbench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds inputs and references, then runs and checks one warm-up op.
  // Throws lopass::Error when the warm-up op fails its check.
  virtual void Setup() = 0;
  // One op; `index` selects the pool input. Timed by the caller.
  virtual void Op(int index) = 0;
  // Checks the outputs of the last Op(index).
  virtual bool CheckOp(int index) = 0;
  // The jobs op `index` consists of, as the traced run replays them.
  virtual std::vector<Job> Jobs(int index) const = 0;
  // Checks a cold run of job `job` of op `index` against that op.
  virtual bool CheckColdJob(int index, std::size_t job,
                            const lopass::core::PartitionResult& result) const = 0;
  // Worker threads one op keeps busy.
  virtual int threads() const { return 1; }
  // Distinct inputs the ops rotate through.
  virtual int pool() const { return 1; }
};

// `data_dir` holds the expected report and journal; `work_dir` receives
// the journal the journaled sweep writes. Throws lopass::Error for an
// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       const std::string& data_dir,
                                       const std::string& work_dir);

}  // namespace flowbench
