#include "sched/validate.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace lopass::sched {

using power::ResourceType;

namespace {

class Reporter {
 public:
  Reporter(DiagnosticSink& sink, const std::string& where) : sink_(sink), where_(where) {}

  void Add(const char* code, const std::string& msg) {
    sink_.AddError(code, where_.empty() ? msg : where_ + ": " + msg);
    ++errors_;
  }

  std::size_t errors() const { return errors_; }

 private:
  DiagnosticSink& sink_;
  const std::string& where_;
  std::size_t errors_ = 0;
};

std::string NodeStr(std::size_t n, const BlockDfg& dfg) {
  std::ostringstream os;
  os << "node " << n << " (" << ir::OpcodeName(dfg.nodes[n].op) << ")";
  return os.str();
}

// Shared shape check: one schedule entry per DFG node, node indices a
// permutation of [0, dfg.size()).
bool CheckShape(const BlockDfg& dfg, std::size_t entries,
                const std::vector<std::size_t>& node_of_entry, Reporter& rep) {
  if (entries != dfg.size()) {
    std::ostringstream os;
    os << "schedule has " << entries << " ops but the DFG has " << dfg.size() << " nodes";
    rep.Add("L400", os.str());
    return false;
  }
  std::vector<char> seen(dfg.size(), 0);
  for (std::size_t i = 0; i < node_of_entry.size(); ++i) {
    const std::size_t n = node_of_entry[i];
    if (n >= dfg.size()) {
      std::ostringstream os;
      os << "schedule entry " << i << " references DFG node " << n << " (out of range)";
      rep.Add("L400", os.str());
      return false;
    }
    if (seen[n]) {
      std::ostringstream os;
      os << "DFG node " << n << " scheduled more than once";
      rep.Add("L400", os.str());
      return false;
    }
    seen[n] = 1;
  }
  return true;
}

}  // namespace

bool ValidateSchedule(const BlockDfg& dfg, const BlockSchedule& sched,
                      const ResourceSet& rs, const power::TechLibrary& lib,
                      DiagnosticSink& sink, bool chaining_enabled,
                      const std::string& where) {
  Reporter rep(sink, where);

  std::vector<std::size_t> nodes(sched.ops.size());
  for (std::size_t i = 0; i < sched.ops.size(); ++i) nodes[i] = sched.ops[i].node;
  // The list scheduler stores ops indexed by node and leaves .node == 0
  // for the node-0 slot; treat an all-default empty schedule of an
  // empty DFG as trivially valid.
  if (dfg.size() == 0) {
    if (!sched.ops.empty()) rep.Add("L400", "non-empty schedule for an empty DFG");
    if (sched.num_steps != 0) rep.Add("L403", "empty DFG must schedule to 0 steps");
    return rep.errors() == 0;
  }
  if (!CheckShape(dfg, sched.ops.size(), nodes, rep)) return false;

  // step/latency/type per node (ops are indexed by node, but re-index
  // defensively via .node so hand-built schedules are honored).
  std::vector<const ScheduledOp*> by_node(dfg.size(), nullptr);
  for (const ScheduledOp& op : sched.ops) by_node[op.node] = &op;

  std::uint32_t makespan = 0;
  for (std::size_t n = 0; n < dfg.size(); ++n) {
    const ScheduledOp& op = *by_node[n];

    // L404: type admissible for the opcode and latency from the library.
    const auto candidates = CandidateResources(dfg.nodes[n].op);
    if (std::find(candidates.begin(), candidates.end(), op.type) == candidates.end()) {
      rep.Add("L404", NodeStr(n, dfg) + " mapped to non-candidate resource " +
                          power::ResourceTypeName(op.type));
    } else if (op.latency != lib.spec(op.type).op_latency) {
      std::ostringstream os;
      os << NodeStr(n, dfg) << " latency " << op.latency << " does not match "
         << power::ResourceTypeName(op.type) << " library latency "
         << lib.spec(op.type).op_latency;
      rep.Add("L404", os.str());
    }
    if (op.latency < 1) {
      rep.Add("L404", NodeStr(n, dfg) + " has non-positive latency");
      continue;  // interval math below would be meaningless
    }
    makespan = std::max(makespan, op.step + static_cast<std::uint32_t>(op.latency));

    // L401: every predecessor finished, or legally chained.
    for (std::size_t p : dfg.nodes[n].preds) {
      const ScheduledOp& sp = *by_node[p];
      const std::uint32_t finish = sp.step + static_cast<std::uint32_t>(sp.latency);
      if (op.step >= finish) continue;
      const bool chained = chaining_enabled && op.step == sp.step && sp.latency == 1;
      if (!chained) {
        std::ostringstream os;
        os << NodeStr(n, dfg) << " starts at step " << op.step << " before predecessor "
           << NodeStr(p, dfg) << " finishes at step " << finish;
        rep.Add("L401", os.str());
      }
    }
  }

  // L402: per-type occupancy in every control step within the budget.
  // Chained ops still occupy their own instance (the scheduler reserves
  // one per op), so plain interval counting matches its accounting. One
  // pass fills the [type x step] table; the scan then goes type by type.
  constexpr auto kTypes = static_cast<std::size_t>(power::kNumResourceTypes);
  std::vector<int> occupancy(kTypes * makespan, 0);
  for (const ScheduledOp* op : by_node) {
    const auto t = static_cast<std::size_t>(op->type);
    // A type past the library's (L404 above) occupies no row.
    if (op->latency < 1 || t >= kTypes) continue;
    int* row = occupancy.data() + t * makespan;
    for (std::uint32_t s = op->step;
         s < op->step + static_cast<std::uint32_t>(op->latency) && s < makespan; ++s) {
      ++row[s];
    }
  }
  for (std::size_t t = 0; t < kTypes; ++t) {
    const ResourceType type = static_cast<ResourceType>(t);
    const int* row = occupancy.data() + t * makespan;
    const int budget = rs.of(type);
    for (std::uint32_t s = 0; s < makespan; ++s) {
      if (row[s] > budget) {
        std::ostringstream os;
        os << row[s] << " concurrent " << power::ResourceTypeName(type)
           << " ops in control step " << s << " but the resource set '" << rs.name
           << "' provides " << budget;
        rep.Add("L402", os.str());
        break;  // one finding per type is enough to flag the set
      }
    }
  }

  // L403: reported makespan must match the actual one (>= 1 even for a
  // register-transfer-only block whose DFG collapsed to depth 0).
  const std::uint32_t expect = std::max(makespan, 1u);
  if (sched.num_steps != expect) {
    std::ostringstream os;
    os << "schedule reports " << sched.num_steps << " control steps but ops span "
       << expect;
    rep.Add("L403", os.str());
  }

  return rep.errors() == 0;
}

}  // namespace lopass::sched
