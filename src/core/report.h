#pragma once

// Result structures mirroring the paper's Table 1 and Fig. 6, plus
// their ASCII renderers used by the benchmark harness.

#include <string>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "iss/simulator.h"

namespace lopass::core {

struct ExecTime {
  Cycles up_cycles = 0;
  Cycles asic_cycles = 0;
  Cycles total() const { return up_cycles + asic_cycles; }
};

// One application row of Table 1 (initial "I" + partitioned "P"). The
// paper's table folds the bus into the "mem" column; `bus` is kept
// separate in each half and folded at print time.
struct AppRow {
  std::string app;
  iss::CoreEnergies initial;
  iss::CoreEnergies partitioned;
  ExecTime initial_time;
  ExecTime partitioned_time;
  double asic_cells = 0.0;       // hardware overhead of the ASIC core
  double asic_utilization = 0.0; // U_R^core of the synthesized core
  std::string resource_set;      // designer set chosen
  std::string cluster;           // cluster(s) mapped to hardware

  double saving_percent() const {
    const double e0 = initial.total().joules;
    return e0 <= 0.0 ? 0.0 : (partitioned.total().joules / e0 - 1.0) * 100.0;
  }
  double time_change_percent() const {
    const double t0 = static_cast<double>(initial_time.total());
    return t0 <= 0.0 ? 0.0
                     : (static_cast<double>(partitioned_time.total()) / t0 - 1.0) * 100.0;
  }
};

// Renders the rows in the layout of the paper's Table 1.
TextTable RenderTable1(const std::vector<AppRow>& rows);

// Renders the Fig. 6 series (energy saving % and execution-time change
// % per application) as a table plus an ASCII bar chart.
std::string RenderFig6(const std::vector<AppRow>& rows);

// Machine-readable export: one CSV line per row (energies in joules,
// times in cycles), with a header line. For plotting scripts.
std::string ToCsv(const std::vector<AppRow>& rows);

}  // namespace lopass::core
