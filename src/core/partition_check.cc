#include "core/partition_check.h"

#include <cmath>
#include <sstream>
#include <vector>

namespace lopass::core {

using ir::Opcode;

namespace {

std::string ClusterStr(const Cluster& c) {
  std::ostringstream os;
  os << "cluster " << c.id << " ('" << c.label << "')";
  return os.str();
}

bool ValidBlockRef(const ir::Module& m, const BlockRef& ref) {
  const auto& [fn, b] = ref;
  if (fn < 0 || static_cast<std::size_t>(fn) >= m.num_functions()) return false;
  return b >= 0 && static_cast<std::size_t>(b) < m.function(fn).blocks.size();
}

// Worklist-based gen/use with call closure — deliberately a different
// algorithm than dataflow.cc's memoized per-function recursion, so the
// two implementations cross-check each other.
GenUse RecomputeGenUse(const ir::Module& m, const std::vector<BlockRef>& blocks) {
  GenUse gu;
  std::vector<ir::FunctionId> worklist;
  std::unordered_set<ir::FunctionId> enqueued;

  auto scan = [&](const ir::BasicBlock& b) {
    for (const ir::Instr& in : b.instrs) {
      switch (in.op) {
        case Opcode::kReadVar:
        case Opcode::kLoadElem:
          gu.use.insert(in.sym);
          break;
        case Opcode::kWriteVar:
        case Opcode::kStoreElem:
          gu.gen.insert(in.sym);
          break;
        case Opcode::kCall: {
          const auto callee = ir::CalleeOf(m, in);
          if (callee && enqueued.insert(*callee).second) worklist.push_back(*callee);
          break;
        }
        default:
          break;
      }
    }
  };

  for (const auto& [fn, b] : blocks) scan(m.function(fn).block(b));
  while (!worklist.empty()) {
    const ir::FunctionId fn = worklist.back();
    worklist.pop_back();
    for (ir::SymbolId p : m.function(fn).params) gu.gen.insert(p);
    for (const ir::BasicBlock& b : m.function(fn).blocks) scan(b);
  }
  return gu;
}

std::string SetDiff(const ir::Module& m, const std::unordered_set<ir::SymbolId>& got,
                    const std::unordered_set<ir::SymbolId>& want) {
  std::ostringstream os;
  for (ir::SymbolId s : want) {
    if (!got.count(s)) os << " -" << m.symbol(s).name;
  }
  for (ir::SymbolId s : got) {
    if (!want.count(s)) os << " +" << m.symbol(s).name;
  }
  return os.str();
}

}  // namespace

bool ValidateClusterChain(const ir::Module& module, const ClusterChain& chain,
                          DiagnosticSink& sink) {
  std::size_t before = sink.diagnostics().size();

  if (chain.chain_length < 0 ||
      static_cast<std::size_t>(chain.chain_length) > chain.clusters.size()) {
    sink.AddError("L301", "chain_length exceeds the number of clusters");
    return false;
  }

  for (std::size_t i = 0; i < chain.clusters.size(); ++i) {
    const Cluster& c = chain.clusters[i];
    if (c.id != static_cast<int>(i)) {
      sink.AddError("L301", ClusterStr(c) + " stored at index " + std::to_string(i));
    }
    const bool is_chain_member = c.id >= 0 && c.id < chain.chain_length;
    if (is_chain_member && c.chain_pos != c.id) {
      std::ostringstream os;
      os << ClusterStr(c) << " is a chain member but sits at chain position "
         << c.chain_pos << " instead of " << c.id;
      sink.AddError("L301", os.str());
    }
    if (!is_chain_member &&
        (c.chain_pos < 0 || c.chain_pos >= chain.chain_length ||
         c.kind != ir::RegionKind::kFunction)) {
      sink.AddError("L301", ClusterStr(c) +
                                " is not a chain member yet is no function cluster "
                                "shadowing a valid chain position");
    }

    bool refs_ok = true;
    for (const BlockRef& ref : c.blocks) {
      if (!ValidBlockRef(module, ref)) {
        std::ostringstream os;
        os << ClusterStr(c) << " references nonexistent block (function " << ref.first
           << ", block " << ref.second << ")";
        sink.AddError("L300", os.str());
        refs_ok = false;
      }
    }
    if (!refs_ok) continue;

    // L306: flags must agree with an independent block scan.
    bool calls = false;
    for (const auto& [fn, b] : c.blocks) {
      for (const ir::Instr& in : module.function(fn).block(b).instrs) {
        if (in.op == Opcode::kCall) calls = true;
      }
    }
    if (calls != c.contains_calls) {
      sink.AddError("L306", ClusterStr(c) + " contains_calls flag is " +
                                (c.contains_calls ? "set" : "clear") +
                                " but the blocks say otherwise");
    }
    const bool want_candidate =
        is_chain_member
            ? ((c.kind == ir::RegionKind::kLoop || c.kind == ir::RegionKind::kIfElse) &&
               !calls && !c.blocks.empty())
            : (!calls && !c.blocks.empty());
    if (c.hw_candidate != want_candidate) {
      sink.AddError("L306", ClusterStr(c) + " hw_candidate flag is inconsistent with "
                                            "its kind/calls/blocks");
    }
  }

  // L302: chain members must not share blocks (function clusters *do*
  // overlap their host leaf's callee by design, so only ids <
  // chain_length participate).
  std::unordered_set<std::uint64_t> owner;
  for (const Cluster& c : chain.clusters) {
    if (c.id < 0 || c.id >= chain.chain_length) continue;
    for (const BlockRef& ref : c.blocks) {
      if (!ValidBlockRef(module, ref)) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(
                                     static_cast<std::uint32_t>(ref.first))
                                 << 32) |
                                static_cast<std::uint32_t>(ref.second);
      if (!owner.insert(key).second) {
        std::ostringstream os;
        os << ClusterStr(c) << " covers function " << ref.first << " block " << ref.second
           << " already owned by an earlier chain member";
        sink.AddError("L302", os.str());
      }
    }
  }

  return sink.diagnostics().size() == before;
}

bool ValidateGenUse(const ir::Module& module, const ClusterChain& chain,
                    const BusTrafficAnalyzer& analyzer, DiagnosticSink& sink) {
  std::size_t before = sink.diagnostics().size();
  for (const Cluster& c : chain.clusters) {
    bool refs_ok = true;
    for (const BlockRef& ref : c.blocks) refs_ok = refs_ok && ValidBlockRef(module, ref);
    if (!refs_ok) continue;  // L300 already covers this
    const GenUse expect = RecomputeGenUse(module, c.blocks);
    const GenUse& got = analyzer.cluster_gen_use(c.id);
    if (got.gen != expect.gen) {
      sink.AddError("L303", ClusterStr(c) + " gen set disagrees with recomputation:" +
                                SetDiff(module, got.gen, expect.gen));
    }
    if (got.use != expect.use) {
      sink.AddError("L303", ClusterStr(c) + " use set disagrees with recomputation:" +
                                SetDiff(module, got.use, expect.use));
    }
  }
  return sink.diagnostics().size() == before;
}

bool ValidateTransfers(const ir::Module& module, const Cluster& cluster,
                       const Transfers& t, DiagnosticSink& sink) {
  std::size_t before = sink.diagnostics().size();

  std::uint64_t total_words = 0;
  for (const ir::Symbol& s : module.symbols()) {
    if (s.kind != ir::SymbolKind::kFunction) total_words += s.length;
  }
  // A function cluster moves its return value as one extra word.
  const std::uint64_t bound =
      total_words + (cluster.kind == ir::RegionKind::kFunction ? 1 : 0);
  if (t.up_to_mem_words > bound || t.asic_to_mem_words > bound) {
    std::ostringstream os;
    os << ClusterStr(cluster) << " transfer estimate (" << t.up_to_mem_words << " up, "
       << t.asic_to_mem_words
       << " down words) exceeds the module's total static data of " << bound
       << " words (likely an underflow in the synergy terms)";
    sink.AddError("L304", os.str());
  }
  if (!std::isfinite(t.energy.joules) || t.energy.joules < 0.0) {
    sink.AddError("L304", ClusterStr(cluster) + " transfer energy is negative or "
                                                "non-finite");
  }
  return sink.diagnostics().size() == before;
}

bool ValidateHwSelection(const ClusterChain& chain,
                         const std::unordered_set<int>& hw_clusters,
                         DiagnosticSink& sink) {
  std::size_t before = sink.diagnostics().size();
  std::unordered_set<int> mapped_pos;
  for (int id : hw_clusters) {
    if (id < 0 || static_cast<std::size_t>(id) >= chain.clusters.size()) {
      sink.AddError("L305", "HW selection references nonexistent cluster id " +
                                std::to_string(id));
      continue;
    }
    const Cluster& c = chain.clusters[static_cast<std::size_t>(id)];
    if (!c.hw_candidate) {
      sink.AddError("L305", ClusterStr(c) + " is mapped to the ASIC but is not a "
                                            "hardware candidate");
    }
    if (!mapped_pos.insert(c.chain_pos).second) {
      std::ostringstream os;
      os << ClusterStr(c) << " maps chain position " << c.chain_pos
         << " to the ASIC a second time (a function cluster and its host leaf are "
            "mutually exclusive)";
      sink.AddError("L305", os.str());
    }
  }
  return sink.diagnostics().size() == before;
}

}  // namespace lopass::core
