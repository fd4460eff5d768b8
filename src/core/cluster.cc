#include "core/cluster.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "common/fault.h"

namespace lopass::core {

using ir::Opcode;

namespace {

// Counts call sites per callee function across the whole module.
std::unordered_map<ir::FunctionId, int> CountCallSites(const ir::Module& m) {
  std::unordered_map<ir::FunctionId, int> sites;
  for (const ir::Function& f : m.functions()) {
    for (const ir::BasicBlock& b : f.blocks) {
      for (const ir::Instr& in : b.instrs) {
        if (in.op == Opcode::kCall) {
          const auto callee = ir::CalleeOf(m, in);
          LOPASS_CHECK(callee.has_value(), "unresolved call");
          ++sites[*callee];
        }
      }
    }
  }
  return sites;
}

// Adds a function's blocks (transitively through calls) to `out`.
void CollectFunctionBlocks(const ir::Module& m, ir::FunctionId fn,
                           std::unordered_set<ir::FunctionId>& visited,
                           std::vector<BlockRef>& out) {
  if (!visited.insert(fn).second) return;
  const ir::Function& f = m.function(fn);
  for (const ir::BasicBlock& b : f.blocks) {
    out.emplace_back(fn, b.id);
    for (const ir::Instr& in : b.instrs) {
      if (in.op == Opcode::kCall) {
        const auto callee = ir::CalleeOf(m, in);
        if (callee) CollectFunctionBlocks(m, *callee, visited, out);
      }
    }
  }
}

bool BlocksContainCalls(const ir::Module& m, const std::vector<BlockRef>& blocks) {
  for (const auto& [fn, b] : blocks) {
    for (const ir::Instr& in : m.function(fn).block(b).instrs) {
      if (in.op == Opcode::kCall) return true;
    }
  }
  return false;
}

// Returns the single call instruction of a region's blocks, if the
// region contains exactly one call and that callee is called exactly
// once module-wide; otherwise nullopt.
std::optional<ir::FunctionId> SingleCalleeOf(
    const ir::Module& m, const std::vector<BlockRef>& blocks,
    const std::unordered_map<ir::FunctionId, int>& call_sites) {
  std::optional<ir::FunctionId> callee;
  int calls = 0;
  for (const auto& [fn, b] : blocks) {
    for (const ir::Instr& in : m.function(fn).block(b).instrs) {
      if (in.op != Opcode::kCall) continue;
      ++calls;
      if (calls > 1) return std::nullopt;
      const auto c = ir::CalleeOf(m, in);
      LOPASS_CHECK(c.has_value(), "unresolved call");
      callee = *c;
    }
  }
  if (!callee) return std::nullopt;
  const auto it = call_sites.find(*callee);
  if (it == call_sites.end() || it->second != 1) return std::nullopt;
  return callee;
}

}  // namespace

const Cluster& ClusterChain::at_chain_pos(int pos) const {
  for (const Cluster& c : clusters) {
    if (c.chain_pos == pos && c.id < chain_length) return c;
  }
  throw Error("no cluster at chain position " + std::to_string(pos));
}

ClusterChain DecomposeIntoClusters(const ir::Module& module, const ir::RegionTree& regions,
                                   const std::string& entry) {
  fault::MaybeInject("alloc");
  const ir::FunctionId entry_fn = module.EntryFunction(entry);

  const auto call_sites = CountCallSites(module);
  ClusterChain chain;

  const ir::RegionId root = regions.function_root(entry_fn);
  const ir::RegionNode& root_node = regions.node(root);

  // Chain members: the entry function's top-level regions in order.
  // Blocks owned directly by the function root (if any) become leading
  // leaf members.
  auto add_chain_cluster = [&](ir::RegionId region, ir::RegionKind kind,
                               const std::string& label, std::vector<BlockRef> blocks) {
    Cluster c;
    c.id = static_cast<int>(chain.clusters.size());
    c.label = label;
    c.kind = kind;
    c.region = region;
    c.blocks = std::move(blocks);
    c.chain_pos = static_cast<int>(chain.clusters.size());
    c.contains_calls = BlocksContainCalls(module, c.blocks);
    c.hw_candidate = (kind == ir::RegionKind::kLoop || kind == ir::RegionKind::kIfElse) &&
                     !c.contains_calls && !c.blocks.empty();
    chain.clusters.push_back(std::move(c));
  };

  // A leaf that holds no operations (only unconditional branches —
  // loop-exit bridge blocks) carries no work and no gen/use sets; it is
  // skipped so that consecutive loops stay adjacent in the chain (the
  // synergy tests of Fig. 3 steps 2/4 look at c_{i-1} / c_{i+1}).
  auto has_real_ops = [&](const std::vector<BlockRef>& blocks) {
    for (const auto& [fn, b] : blocks) {
      for (const ir::Instr& in : module.function(fn).block(b).instrs) {
        if (in.op != Opcode::kBr) return true;
      }
    }
    return false;
  };

  for (ir::RegionId child : root_node.children) {
    const ir::RegionNode& n = regions.node(child);
    std::vector<BlockRef> blocks;
    for (ir::BlockId b : regions.CoveredBlocks(child)) blocks.emplace_back(entry_fn, b);
    if (blocks.empty()) continue;
    if (n.kind == ir::RegionKind::kLeaf && !has_real_ops(blocks)) continue;
    add_chain_cluster(child, n.kind, n.label, std::move(blocks));
  }
  // If the function root owns blocks directly (it does not in frontend
  // output, but programmatic IR may differ), append them as one leaf.
  if (!root_node.blocks.empty()) {
    std::vector<BlockRef> blocks;
    for (ir::BlockId b : root_node.blocks) blocks.emplace_back(entry_fn, b);
    add_chain_cluster(root, ir::RegionKind::kLeaf, "root-blocks", std::move(blocks));
  }
  chain.chain_length = static_cast<int>(chain.clusters.size());

  // Function-cluster candidates: chain leaves with exactly one call to
  // a once-called function.
  for (int pos = 0; pos < chain.chain_length; ++pos) {
    const Cluster& member = chain.clusters[static_cast<std::size_t>(pos)];
    if (!member.contains_calls) continue;
    const auto callee = SingleCalleeOf(module, member.blocks, call_sites);
    if (!callee) continue;
    std::vector<BlockRef> blocks;
    std::unordered_set<ir::FunctionId> visited;
    CollectFunctionBlocks(module, *callee, visited, blocks);
    Cluster c;
    c.id = static_cast<int>(chain.clusters.size());
    c.label = "func " + module.function(*callee).name;
    c.kind = ir::RegionKind::kFunction;
    c.region = regions.function_root(*callee);
    c.blocks = std::move(blocks);
    c.chain_pos = pos;
    c.contains_calls = BlocksContainCalls(module, c.blocks);
    c.hw_candidate = !c.contains_calls && !c.blocks.empty();
    c.callee = *callee;
    chain.clusters.push_back(std::move(c));
  }

  return chain;
}

}  // namespace lopass::core
