#include "asic/netlist_check.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "asic/verilog.h"

namespace lopass::asic {

using power::ResourceType;

namespace {

constexpr int kMaxMuxLegs = 32;

int UnitKey(ResourceType t, int instance) {
  return static_cast<int>(t) * 256 + instance;
}

std::string UnitStr(int key) {
  std::ostringstream os;
  os << power::ResourceTypeName(static_cast<ResourceType>(key / 256)) << '#'
     << (key % 256);
  return os.str();
}

std::string Prefixed(const std::string& where, const std::string& msg) {
  return where.empty() ? msg : where + ": " + msg;
}

// Mirrors verilog.cc's state-register sizing.
int Clog2(std::uint32_t v) {
  int bits = 1;
  while ((1u << bits) < v) ++bits;
  return bits;
}

}  // namespace

bool ValidateDatapath(const std::vector<ScheduledBlock>& blocks,
                      const UtilizationResult& util, const Datapath& datapath,
                      DiagnosticSink& sink, const std::string& where) {
  std::size_t errors_before = 0;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.severity == Severity::kError) ++errors_before;
  }
  auto error_count = [&sink]() {
    std::size_t n = 0;
    for (const Diagnostic& d : sink.diagnostics()) {
      if (d.severity == Severity::kError) ++n;
    }
    return n;
  };

  // L502: unit table free of duplicates.
  std::set<int> unit_keys;
  for (const DatapathUnit& u : datapath.units) {
    const int key = UnitKey(u.type, u.instance);
    if (!unit_keys.insert(key).second) {
      sink.AddError("L502", Prefixed(where, "functional unit " + UnitStr(key) +
                                                " instantiated twice"));
    }
  }

  // L502: each (block, node) bound at most once.
  std::map<std::pair<std::size_t, std::size_t>, int> bound;
  for (const OpBinding& b : util.bindings) {
    const int key = UnitKey(b.type, b.instance);
    if (!bound.emplace(std::make_pair(b.block, b.node), key).second) {
      std::ostringstream os;
      os << "block " << b.block << " node " << b.node << " bound to more than one unit";
      sink.AddError("L502", Prefixed(where, os.str()));
    }
    if (!unit_keys.count(key)) {
      sink.AddError("L503", Prefixed(where, "binding references unit " + UnitStr(key) +
                                                " absent from the datapath"));
    }
  }

  // L503: producer keys resolve; working units have an input source.
  for (const DatapathUnit& u : datapath.units) {
    for (int p : u.producers) {
      if (p >= 0 && !unit_keys.count(p)) {
        sink.AddError("L503",
                      Prefixed(where, "unit " + UnitStr(UnitKey(u.type, u.instance)) +
                                          " lists dangling producer " + UnitStr(p)));
      }
    }
    if (u.ops > 0 && u.producers.empty()) {
      sink.AddError("L503",
                    Prefixed(where, "unit " + UnitStr(UnitKey(u.type, u.instance)) +
                                        " executes operations but has no input source"));
    }
    // L504: steering fan-in must stay implementable (warning: the mux
    // model stays valid, the layout just gets slow).
    if (u.mux_legs() > kMaxMuxLegs) {
      std::ostringstream os;
      os << "unit " << UnitStr(UnitKey(u.type, u.instance)) << " input mux has "
         << u.mux_legs() << " legs (bound " << kMaxMuxLegs << ")";
      sink.AddWarning("L504", Prefixed(where, os.str()));
    }
  }

  // L500: within one control step of one block, the chained unit graph
  // must stay acyclic (a registered edge crosses steps; a same-step
  // edge is a combinational pass-through).
  std::uint32_t expected_states = 1;  // idle
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const sched::BlockDfg* dfg = blocks[bi].dfg;
    const sched::BlockSchedule* sch = blocks[bi].schedule;
    if (dfg == nullptr || sch == nullptr) {
      sink.AddError("L500", Prefixed(where, "scheduled block " + std::to_string(bi) +
                                                " is missing its DFG or schedule"));
      continue;
    }
    expected_states += std::max(sch->num_steps, 1u);
    if (sch->ops.size() != dfg->size()) continue;  // L400 territory

    std::vector<std::uint32_t> step(dfg->size(), 0);
    for (const sched::ScheduledOp& op : sch->ops) {
      if (op.node < step.size()) step[op.node] = op.step;
    }
    // Same-step unit adjacency, grouped by step.
    std::map<std::uint32_t, std::map<int, std::set<int>>> adj;
    for (std::size_t n = 0; n < dfg->size(); ++n) {
      const auto nb = bound.find({bi, n});
      if (nb == bound.end()) continue;
      for (std::size_t p : dfg->nodes[n].preds) {
        if (step[p] != step[n]) continue;
        const auto pb = bound.find({bi, p});
        if (pb == bound.end()) continue;
        adj[step[n]][pb->second].insert(nb->second);
      }
    }
    for (const auto& [s, graph] : adj) {
      // Iterative DFS cycle check over the small per-step graph.
      std::map<int, int> color;  // 0 new, 1 on stack, 2 done
      bool cyclic = false;
      for (const auto& [start, _] : graph) {
        if (color[start] != 0) continue;
        std::vector<std::pair<int, bool>> stack{{start, false}};
        while (!stack.empty() && !cyclic) {
          auto [u, leaving] = stack.back();
          stack.pop_back();
          if (leaving) {
            color[u] = 2;
            continue;
          }
          if (color[u] == 1) continue;
          color[u] = 1;
          stack.push_back({u, true});
          const auto it = graph.find(u);
          if (it == graph.end()) continue;
          for (int v : it->second) {
            if (color[v] == 1) {
              cyclic = true;
              break;
            }
            if (color[v] == 0) stack.push_back({v, false});
          }
        }
        if (cyclic) break;
      }
      if (cyclic) {
        std::ostringstream os;
        os << "block " << bi << " control step " << s
           << ": combinational loop through chained functional units";
        sink.AddError("L500", Prefixed(where, os.str()));
      }
    }
  }

  // L505: FSM sized exactly for the schedule.
  if (datapath.fsm_states != expected_states) {
    std::ostringstream os;
    os << "controller has " << datapath.fsm_states << " FSM states but the schedules"
       << " require " << expected_states << " (incl. idle)";
    sink.AddError("L505", Prefixed(where, os.str()));
  }

  return error_count() == errors_before;
}

bool ValidateVerilog(const std::string& verilog, const Datapath& datapath,
                     DiagnosticSink& sink, const std::string& where) {
  std::size_t before = sink.diagnostics().size();
  const int state_bits = Clog2(std::max(2u, datapath.fsm_states));

  // L501: every vector declaration carries the datapath width, except
  // the FSM state register which is sized by the state count.
  std::istringstream is(verilog);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t lb = line.find('[');
    if (lb == std::string::npos) continue;
    const std::size_t colon = line.find(":0]", lb);
    if (colon == std::string::npos) continue;
    // Declarations only (wire/reg); expressions like 32'd0 have no [.
    const bool is_decl = line.find("wire") != std::string::npos ||
                         line.find("reg") != std::string::npos;
    if (!is_decl || line.find("//") < lb) continue;
    int msb = -1;
    try {
      msb = std::stoi(line.substr(lb + 1, colon - lb - 1));
    } catch (...) {
      continue;
    }
    const bool is_state = line.find(" state;") != std::string::npos;
    const int want = is_state ? state_bits - 1 : kVerilogDataWidth - 1;
    if (msb != want) {
      std::ostringstream os;
      os << "vector declared [" << msb << ":0] but "
         << (is_state ? "the FSM state register needs [" : "the datapath width needs [")
         << want << ":0]";
      sink.AddError("L501", Prefixed(where, os.str()), SourceLoc{lineno, 1});
    }
  }

  // Every datapath unit must be instantiated exactly once (text level).
  for (const DatapathUnit& u : datapath.units) {
    const std::string inst = std::string(power::ResourceTypeName(u.type)) + "_" +
                             std::to_string(u.instance);
    const std::string pattern = " " + inst + " (.a(";
    std::size_t count = 0;
    for (std::size_t pos = verilog.find(pattern); pos != std::string::npos;
         pos = verilog.find(pattern, pos + 1)) {
      ++count;
    }
    if (count == 0) {
      sink.AddError("L503", Prefixed(where, "unit " + inst +
                                                " is missing from the emitted Verilog"));
    } else if (count > 1) {
      sink.AddError("L502", Prefixed(where, "unit " + inst + " instantiated " +
                                                std::to_string(count) + " times"));
    }
  }

  return sink.diagnostics().size() == before;
}

}  // namespace lopass::asic
