#include "src/distributed/distributed_evaluator.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "src/common/assert.hpp"

namespace mvd {

namespace {

/// Site a node's result leaves from: its stored copy when in M.
std::size_t source_site(const Placement& p, NodeId v,
                        const MaterializedSet& m) {
  const std::size_t i = static_cast<std::size_t>(v);
  return m.contains(v) ? p.storage_site[i] : p.compute_site[i];
}

double transfer_walk(const MvppGraph& g, const Placement& p, NodeId v,
                     const MaterializedSet& m,
                     std::map<NodeId, double>& memo) {
  if (auto it = memo.find(v); it != memo.end()) return it->second;
  const MvppNode& n = g.node(v);
  MVD_ASSERT(n.kind != MvppNodeKind::kQuery);
  double blocks = 0;
  if (n.kind != MvppNodeKind::kBase) {
    for (NodeId c : n.children) {
      const MvppNode& child = g.node(c);
      const bool stored = child.kind == MvppNodeKind::kBase || m.contains(c);
      if (!stored) blocks += transfer_walk(g, p, c, m, memo);
      if (source_site(p, c, m) !=
          p.compute_site[static_cast<std::size_t>(v)]) {
        blocks += child.blocks;
      }
    }
  }
  memo.emplace(v, blocks);
  return blocks;
}

}  // namespace

DistributedMvppEvaluator::DistributedMvppEvaluator(const MvppGraph& graph,
                                                   SiteTopology topology,
                                                   MaintenancePolicy policy)
    : MvppEvaluator(graph, policy), topology_(std::move(topology)) {
  const std::vector<std::string>& sites = topology_.sites();
  const auto index_of = [&](const std::string& site) {
    return static_cast<std::size_t>(
        std::find(sites.begin(), sites.end(), site) - sites.begin());
  };
  Placement p;
  p.site_count = sites.size();
  p.price.resize(p.site_count * p.site_count);
  for (std::size_t a = 0; a < p.site_count; ++a) {
    for (std::size_t b = 0; b < p.site_count; ++b) {
      p.price[a * p.site_count + b] =
          topology_.transfer_cost(sites[a], sites[b]);
    }
  }

  std::vector<std::size_t>& compute = p.compute_site;
  compute.resize(graph.size());
  for (const MvppNode& n : graph.nodes()) {
    const std::size_t i = static_cast<std::size_t>(n.id);
    switch (n.kind) {
      case MvppNodeKind::kBase:
        compute[i] = index_of(topology_.relation_site(n.relation));
        break;
      case MvppNodeKind::kSelect:
      case MvppNodeKind::kProject:
      case MvppNodeKind::kAggregate:
        compute[i] = compute[static_cast<std::size_t>(n.children[0])];
        break;
      case MvppNodeKind::kJoin: {
        // Run the join where the bigger input lives (ship the smaller).
        const MvppNode& l = graph.node(n.children[0]);
        const MvppNode& r = graph.node(n.children[1]);
        const NodeId host = l.blocks >= r.blocks ? l.id : r.id;
        compute[i] = compute[static_cast<std::size_t>(host)];
        break;
      }
      case MvppNodeKind::kQuery:
        compute[i] = index_of(topology_.query_site(n.name));
        break;
    }
  }

  // Storage placement: among the compute site and the issue sites of the
  // queries above the node (visited in site-name order, ties to the
  // first), pick the site minimizing estimated read shipping (one read
  // per query execution, Σ fq over Ov) plus refresh shipping
  // (update_factor × blocks from the compute site).
  p.storage_site = compute;
  for (NodeId v : closures().operation_ids()) {
    const MvppNode& n = graph.node(v);
    const std::size_t home = compute[static_cast<std::size_t>(v)];
    std::vector<std::pair<std::size_t, double>> readers;  // site, fq
    for (NodeId q : closures().queries_using(v)) {
      readers.emplace_back(compute[static_cast<std::size_t>(q)],
                           graph.node(q).frequency);
    }
    std::set<std::string> candidates{sites[home]};
    for (const auto& [site, fq] : readers) candidates.insert(sites[site]);
    const double refresh_rate = update_factor(v);
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best = home;
    for (const std::string& name : candidates) {
      const std::size_t site = index_of(name);
      double cost = refresh_rate * n.blocks * p.transfer_price(home, site);
      for (const auto& [reader, fq] : readers) {
        cost += fq * n.blocks * p.transfer_price(site, reader);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = site;
      }
    }
    p.storage_site[static_cast<std::size_t>(v)] = best;
  }
  set_placement(std::move(p));
}

const std::string& DistributedMvppEvaluator::storage_site_of(NodeId v) const {
  MVD_ASSERT(v >= 0 && static_cast<std::size_t>(v) < graph().size());
  const std::size_t i = static_cast<std::size_t>(v);
  return topology_.sites()[placement().storage_site[i]];
}

const std::string& DistributedMvppEvaluator::site_of(NodeId v) const {
  MVD_ASSERT(v >= 0 && static_cast<std::size_t>(v) < graph().size());
  const std::size_t i = static_cast<std::size_t>(v);
  return topology_.sites()[placement().compute_site[i]];
}

double DistributedMvppEvaluator::produce_transfer_blocks(
    NodeId v, const MaterializedSet& m) const {
  std::map<NodeId, double> memo;
  return transfer_walk(graph(), placement(), v, m, memo);
}

double DistributedMvppEvaluator::answer_transfer_blocks(
    NodeId query, const MaterializedSet& m) const {
  const MvppNode& q = graph().node(query);
  MVD_ASSERT(q.kind == MvppNodeKind::kQuery);
  const NodeId result = q.children[0];
  double blocks = m.contains(result) ? 0.0 : produce_transfer_blocks(result, m);
  if (source_site(placement(), result, m) !=
      placement().compute_site[static_cast<std::size_t>(query)]) {
    blocks += graph().node(result).blocks;
  }
  return blocks;
}

}  // namespace mvd
