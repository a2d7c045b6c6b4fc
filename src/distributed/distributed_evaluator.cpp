#include "src/distributed/distributed_evaluator.hpp"

#include <limits>
#include <set>

#include "src/common/assert.hpp"

namespace mvd {

DistributedMvppEvaluator::DistributedMvppEvaluator(const MvppGraph& graph,
                                                   SiteTopology topology,
                                                   MaintenancePolicy policy)
    : MvppEvaluator(graph, policy), topology_(std::move(topology)) {
  node_site_.resize(graph.size());
  for (const MvppNode& n : graph.nodes()) {
    switch (n.kind) {
      case MvppNodeKind::kBase:
        node_site_[static_cast<std::size_t>(n.id)] =
            topology_.relation_site(n.relation);
        break;
      case MvppNodeKind::kSelect:
      case MvppNodeKind::kProject:
      case MvppNodeKind::kAggregate:
        node_site_[static_cast<std::size_t>(n.id)] =
            node_site_[static_cast<std::size_t>(n.children[0])];
        break;
      case MvppNodeKind::kJoin: {
        // Run the join where the bigger input lives (ship the smaller).
        const MvppNode& l = graph.node(n.children[0]);
        const MvppNode& r = graph.node(n.children[1]);
        const NodeId host = l.blocks >= r.blocks ? l.id : r.id;
        node_site_[static_cast<std::size_t>(n.id)] =
            node_site_[static_cast<std::size_t>(host)];
        break;
      }
      case MvppNodeKind::kQuery:
        node_site_[static_cast<std::size_t>(n.id)] =
            topology_.query_site(n.name);
        break;
    }
  }

  // Storage placement: among the compute site and the issue sites of the
  // queries above the node, pick the site minimizing estimated read
  // shipping (one read per query execution, Σ fq over Ov) plus refresh
  // shipping (update_factor × blocks from the compute site).
  storage_site_.resize(graph.size());
  for (const MvppNode& n : graph.nodes()) {
    const std::string& compute = node_site_[static_cast<std::size_t>(n.id)];
    if (!n.is_operation()) {
      storage_site_[static_cast<std::size_t>(n.id)] = compute;
      continue;
    }
    std::vector<std::pair<std::string, double>> readers;  // site, fq
    for (NodeId q : graph.queries_using(n.id)) {
      readers.emplace_back(topology_.query_site(graph.node(q).name),
                           graph.node(q).frequency);
    }
    std::set<std::string> candidates{compute};
    for (const auto& [site, fq] : readers) candidates.insert(site);
    const double refresh_rate = update_factor(n.id);
    double best_cost = std::numeric_limits<double>::infinity();
    std::string best = compute;
    for (const std::string& site : candidates) {
      double cost =
          refresh_rate * n.blocks * topology_.transfer_cost(compute, site);
      for (const auto& [reader, fq] : readers) {
        cost += fq * n.blocks * topology_.transfer_cost(site, reader);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = site;
      }
    }
    storage_site_[static_cast<std::size_t>(n.id)] = best;
  }
}

const std::string& DistributedMvppEvaluator::storage_site_of(NodeId v) const {
  MVD_ASSERT(v >= 0 && static_cast<std::size_t>(v) < storage_site_.size());
  return storage_site_[static_cast<std::size_t>(v)];
}

const std::string& DistributedMvppEvaluator::site_of(NodeId v) const {
  MVD_ASSERT(v >= 0 && static_cast<std::size_t>(v) < node_site_.size());
  return node_site_[static_cast<std::size_t>(v)];
}

double DistributedMvppEvaluator::produce_cost_memo(
    NodeId v, const MaterializedSet& m, std::map<NodeId, double>& memo) const {
  if (auto it = memo.find(v); it != memo.end()) return it->second;
  const MvppNode& n = graph().node(v);
  MVD_ASSERT(n.kind != MvppNodeKind::kQuery);
  double cost = 0;
  if (n.kind != MvppNodeKind::kBase) {
    cost = n.op_cost;
    for (NodeId c : n.children) {
      const MvppNode& child = graph().node(c);
      const bool stored = child.kind == MvppNodeKind::kBase || m.contains(c);
      if (!stored) cost += produce_cost_memo(c, m, memo);
      // Ship the child's blocks to this node's compute site — from its
      // storage site when materialized, from its compute site otherwise.
      const std::string& from =
          m.contains(c) ? storage_site_of(c) : site_of(c);
      cost += child.blocks * topology_.transfer_cost(from, site_of(v));
    }
  }
  memo.emplace(v, cost);
  return cost;
}

double DistributedMvppEvaluator::produce_cost(NodeId v,
                                              const MaterializedSet& m) const {
  std::map<NodeId, double> memo;
  return produce_cost_memo(v, m, memo);
}

double DistributedMvppEvaluator::produce_transfer_memo(
    NodeId v, const MaterializedSet& m, std::map<NodeId, double>& memo) const {
  if (auto it = memo.find(v); it != memo.end()) return it->second;
  const MvppNode& n = graph().node(v);
  MVD_ASSERT(n.kind != MvppNodeKind::kQuery);
  double blocks = 0;
  if (n.kind != MvppNodeKind::kBase) {
    for (NodeId c : n.children) {
      const MvppNode& child = graph().node(c);
      const bool stored = child.kind == MvppNodeKind::kBase || m.contains(c);
      if (!stored) blocks += produce_transfer_memo(c, m, memo);
      const std::string& from =
          m.contains(c) ? storage_site_of(c) : site_of(c);
      if (from != site_of(v)) blocks += child.blocks;
    }
  }
  memo.emplace(v, blocks);
  return blocks;
}

double DistributedMvppEvaluator::produce_transfer_blocks(
    NodeId v, const MaterializedSet& m) const {
  std::map<NodeId, double> memo;
  return produce_transfer_memo(v, m, memo);
}

double DistributedMvppEvaluator::answer_transfer_blocks(
    NodeId query, const MaterializedSet& m) const {
  const MvppNode& q = graph().node(query);
  MVD_ASSERT(q.kind == MvppNodeKind::kQuery);
  const NodeId result = q.children[0];
  const MvppNode& r = graph().node(result);
  if (m.contains(result)) {
    return storage_site_of(result) != site_of(query) ? r.blocks : 0.0;
  }
  double blocks = produce_transfer_blocks(result, m);
  if (site_of(result) != site_of(query)) blocks += r.blocks;
  return blocks;
}

double DistributedMvppEvaluator::answer_cost(NodeId query,
                                             const MaterializedSet& m) const {
  const MvppNode& q = graph().node(query);
  MVD_ASSERT(q.kind == MvppNodeKind::kQuery);
  const NodeId result = q.children[0];
  const MvppNode& r = graph().node(result);
  if (m.contains(result)) {
    return r.blocks + r.blocks * topology_.transfer_cost(
                                     storage_site_of(result), site_of(query));
  }
  return produce_cost(result, m) +
         r.blocks *
             topology_.transfer_cost(site_of(result), site_of(query));
}

double DistributedMvppEvaluator::maintenance_cost(
    NodeId v, const MaterializedSet& m) const {
  const MvppNode& n = graph().node(v);
  MVD_ASSERT(n.is_operation());
  // Without reuse, recompute from the base relations only (still paying
  // transfers) — the distributed analogue of Ca(v). Each refresh also
  // ships the new contents from the compute site to the storage site.
  const double recompute = policy().reuse_materialized
                               ? produce_cost(v, m)
                               : produce_cost(v, MaterializedSet{});
  const double ship_to_store =
      n.blocks * topology_.transfer_cost(site_of(v), storage_site_of(v));
  return update_factor(v) * (recompute + ship_to_store);
}

}  // namespace mvd
