#include "core/dataflow.h"

#include "common/error.h"

namespace lopass::core {

using ir::Opcode;

const GenUse& FunctionSummaries::Of(ir::FunctionId fn) {
  auto it = cache_.find(fn);
  if (it != cache_.end()) return it->second;
  LOPASS_CHECK(in_progress_.insert(fn).second, "recursive call in gen/use analysis");
  GenUse gu;
  for (const ir::BasicBlock& b : module_.function(fn).blocks) {
    for (const ir::Instr& in : b.instrs) Add(in, gu);
  }
  in_progress_.erase(fn);
  return cache_.emplace(fn, std::move(gu)).first->second;
}

void FunctionSummaries::Add(const ir::Instr& in, GenUse& gu, bool include_calls) {
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
      if (!include_calls) break;
      const auto callee = ir::CalleeOf(module_, in);
      LOPASS_CHECK(callee.has_value(), "unresolved call");
      const GenUse& cs = Of(*callee);
      gu.gen.insert(cs.gen.begin(), cs.gen.end());
      gu.use.insert(cs.use.begin(), cs.use.end());
      for (ir::SymbolId p : module_.function(*callee).params) gu.gen.insert(p);
      break;
    }
    default:
      break;
  }
}

GenUse ComputeGenUse(const ir::Module& module, const std::vector<BlockRef>& blocks,
                     bool include_calls) {
  FunctionSummaries summaries(module);
  GenUse gu;
  for (const auto& [fn, b] : blocks) {
    for (const ir::Instr& in : module.function(fn).block(b).instrs) {
      summaries.Add(in, gu, include_calls);
    }
  }
  return gu;
}

BusTrafficAnalyzer::BusTrafficAnalyzer(const ir::Module& module, const ClusterChain& chain,
                                       const power::TechLibrary& lib,
                                       std::uint32_t memory_bytes)
    : module_(module), chain_(chain) {
  // Cost of moving one word through the shared memory of Fig. 2a: the
  // producer writes it (bus + memory write) and the consumer reads it
  // back (bus + memory read). Reads and writes differ (footnote 9).
  const power::MemoryEnergyModel mem(memory_bytes, lib.params());
  per_word_energy_ = lib.bus_write_energy() + mem.write_energy() + lib.bus_read_energy() +
                     mem.read_energy();

  gen_use_.reserve(chain_.clusters.size());
  own_gen_use_.reserve(chain_.clusters.size());
  for (const Cluster& c : chain_.clusters) {
    gen_use_.push_back(ComputeGenUse(module_, c.blocks, /*include_calls=*/true));
    own_gen_use_.push_back(ComputeGenUse(module_, c.blocks, /*include_calls=*/false));
  }
}

const GenUse& BusTrafficAnalyzer::cluster_gen_use(int cluster_id) const {
  LOPASS_CHECK(cluster_id >= 0 &&
                   static_cast<std::size_t>(cluster_id) < gen_use_.size(),
               "bad cluster id");
  return gen_use_[static_cast<std::size_t>(cluster_id)];
}

std::uint64_t BusTrafficAnalyzer::WordsOfIntersection(
    const std::unordered_set<ir::SymbolId>& a,
    const std::unordered_set<ir::SymbolId>& b) const {
  std::uint64_t words = 0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  for (ir::SymbolId s : small) {
    if (large.count(s)) words += module_.symbol(s).length;
  }
  return words;
}

bool BusTrafficAnalyzer::ChainPosInHw(int pos,
                                      const std::unordered_set<int>& hw_clusters) const {
  if (pos < 0 || pos >= chain_.chain_length) return false;
  for (const Cluster& c : chain_.clusters) {
    if (c.chain_pos == pos && hw_clusters.count(c.id)) return true;
  }
  return false;
}

Transfers BusTrafficAnalyzer::Compute(const Cluster& cluster,
                                      const std::unordered_set<int>& hw_clusters) const {
  const int pos = cluster.chain_pos;
  const GenUse& c_gu = gen_use_[static_cast<std::size_t>(cluster.id)];

  // gen[C_pred]: everything generated before the cluster's chain
  // position. For function clusters the call leaf's own operations
  // (argument evaluation) also precede the callee body.
  std::unordered_set<ir::SymbolId> pred_gen;
  for (int q = 0; q < pos; ++q) {
    for (const Cluster& m : chain_.clusters) {
      if (m.chain_pos == q && m.id < chain_.chain_length) {
        const GenUse& gu = gen_use_[static_cast<std::size_t>(m.id)];
        pred_gen.insert(gu.gen.begin(), gu.gen.end());
      }
    }
  }
  if (cluster.kind == ir::RegionKind::kFunction) {
    const Cluster& host = chain_.at_chain_pos(pos);
    const GenUse& own = own_gen_use_[static_cast<std::size_t>(host.id)];
    pred_gen.insert(own.gen.begin(), own.gen.end());
    // The caller also writes the callee's parameters.
    if (cluster.callee >= 0) {
      for (ir::SymbolId p : module_.function(cluster.callee).params) pred_gen.insert(p);
    }
  }

  // use[C_succ]: everything used after the cluster.
  std::unordered_set<ir::SymbolId> succ_use;
  for (int q = pos + 1; q < chain_.chain_length; ++q) {
    for (const Cluster& m : chain_.clusters) {
      if (m.chain_pos == q && m.id < chain_.chain_length) {
        const GenUse& gu = gen_use_[static_cast<std::size_t>(m.id)];
        succ_use.insert(gu.use.begin(), gu.use.end());
      }
    }
  }
  if (cluster.kind == ir::RegionKind::kFunction) {
    const Cluster& host = chain_.at_chain_pos(pos);
    const GenUse& own = own_gen_use_[static_cast<std::size_t>(host.id)];
    succ_use.insert(own.use.begin(), own.use.end());
  }

  Transfers t;
  // Step 1.
  t.up_to_mem_words = WordsOfIntersection(pred_gen, c_gu.use);
  // Step 2: synergy with a preceding ASIC-mapped cluster.
  if (pos > 0 && ChainPosInHw(pos - 1, hw_clusters)) {
    const Cluster& prev = chain_.at_chain_pos(pos - 1);
    t.up_to_mem_words -= WordsOfIntersection(
        gen_use_[static_cast<std::size_t>(prev.id)].gen, c_gu.use);
  }
  // Step 3.
  t.asic_to_mem_words = WordsOfIntersection(c_gu.gen, succ_use);
  // Step 4: synergy with a succeeding ASIC-mapped cluster.
  if (ChainPosInHw(pos + 1, hw_clusters)) {
    const Cluster& next = chain_.at_chain_pos(pos + 1);
    t.asic_to_mem_words -= WordsOfIntersection(
        c_gu.gen, gen_use_[static_cast<std::size_t>(next.id)].use);
  }
  // Function clusters additionally pass the return value back.
  if (cluster.kind == ir::RegionKind::kFunction) t.asic_to_mem_words += 1;

  // Step 5.
  t.energy = per_word_energy_ * static_cast<double>(t.total_words());
  return t;
}

}  // namespace lopass::core
