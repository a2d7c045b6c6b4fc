#include "src/maintenance/incremental.hpp"

#include <map>

#include "src/common/assert.hpp"

namespace mvd {

namespace {

// Delta size (in blocks) of `node`'s result and the cost of computing it,
// for a batch changing `fraction` of `base`. Nodes untouched by the delta
// have zero delta and zero cost.
struct DeltaInfo {
  double blocks = 0;
  double cost = 0;
};

DeltaInfo delta_walk(const MvppGraph& g, NodeId id, NodeId base,
                     double fraction, std::map<NodeId, DeltaInfo>& memo) {
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  const MvppNode& n = g.node(id);
  DeltaInfo info;
  switch (n.kind) {
    case MvppNodeKind::kBase:
      if (id == base) info.blocks = fraction * n.blocks;
      break;
    case MvppNodeKind::kSelect:
    case MvppNodeKind::kProject: {
      const DeltaInfo child = delta_walk(g, n.children[0], base, fraction, memo);
      if (child.blocks > 0) {
        // Scan the child delta; the result delta shrinks proportionally to
        // this operator's overall reduction.
        const double reduction =
            g.node(n.children[0]).blocks > 0
                ? n.blocks / g.node(n.children[0]).blocks
                : 0;
        info.blocks = child.blocks * reduction;
        info.cost = child.cost + child.blocks;
      }
      break;
    }
    case MvppNodeKind::kJoin: {
      const DeltaInfo l = delta_walk(g, n.children[0], base, fraction, memo);
      const DeltaInfo r = delta_walk(g, n.children[1], base, fraction, memo);
      // A single base lies beneath exactly one side.
      const DeltaInfo& delta = l.blocks > 0 ? l : r;
      const MvppNode& other =
          g.node(l.blocks > 0 ? n.children[1] : n.children[0]);
      if (delta.blocks > 0) {
        // Probe the delta against the full other input (block nested loop
        // with the delta as the outer).
        info.cost = delta.cost + delta.blocks + delta.blocks * other.blocks;
        const double input_product =
            g.node(n.children[0]).blocks * g.node(n.children[1]).blocks;
        const double reduction =
            input_product > 0 ? n.blocks / input_product : 0;
        info.blocks = delta.blocks * other.blocks * reduction;
      }
      break;
    }
    case MvppNodeKind::kAggregate: {
      const DeltaInfo child = delta_walk(g, n.children[0], base, fraction, memo);
      if (child.blocks > 0) {
        const double cb = g.node(n.children[0]).blocks;
        info.blocks = child.blocks * (cb > 0 ? n.blocks / cb : 0);
        // Grouped apply: read the child delta and the stored groups.
        info.cost = child.cost + child.blocks + n.blocks;
      }
      break;
    }
    case MvppNodeKind::kQuery:
      info = delta_walk(g, n.children[0], base, fraction, memo);
      break;
  }
  memo.emplace(id, info);
  return info;
}

}  // namespace

double incremental_delta_cost(const MvppGraph& graph, NodeId v, NodeId base,
                              const IncrementalOptions& options) {
  MVD_ASSERT(graph.annotated());
  MVD_ASSERT(graph.node(base).kind == MvppNodeKind::kBase);
  std::map<NodeId, DeltaInfo> memo;
  const DeltaInfo info =
      delta_walk(graph, v, base, options.update_fraction, memo);
  if (info.blocks <= 0 && info.cost <= 0) return 0;
  // Apply the delta to the stored view: write its blocks.
  return info.cost + info.blocks;
}

double incremental_maintenance_cost(const MvppGraph& graph, NodeId v,
                                    const IncrementalOptions& options) {
  double total = 0;
  for (NodeId b : graph.bases_under(v)) {
    total += graph.node(b).frequency *
             incremental_delta_cost(graph, v, b, options);
  }
  return total;
}

double total_incremental_maintenance(const MvppGraph& graph,
                                     const MaterializedSet& m,
                                     const IncrementalOptions& options) {
  double total = 0;
  for (NodeId v : m) total += incremental_maintenance_cost(graph, v, options);
  return total;
}

namespace {

/// Blocks charged by running a node's refresh plan from the frontier —
/// the executed engines' accounting (scan/select charge inputs, project
/// and aggregate are free, a hash join charges both inputs once).
double frontier_produce_cost(const MvppGraph& g, NodeId id,
                             const MaterializedSet& deps,
                             std::map<NodeId, double>& memo) {
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  const MvppNode& n = g.node(id);
  double cost = 0;
  if (n.kind == MvppNodeKind::kBase || deps.contains(id)) {
    cost = n.blocks;  // scan of a base table or stored view
  } else {
    switch (n.kind) {
      case MvppNodeKind::kSelect:
        cost = frontier_produce_cost(g, n.children[0], deps, memo) +
               g.node(n.children[0]).blocks;
        break;
      case MvppNodeKind::kJoin:
        cost = frontier_produce_cost(g, n.children[0], deps, memo) +
               frontier_produce_cost(g, n.children[1], deps, memo) +
               g.node(n.children[0]).blocks + g.node(n.children[1]).blocks;
        break;
      case MvppNodeKind::kProject:
      case MvppNodeKind::kAggregate:
      case MvppNodeKind::kQuery:
        cost = frontier_produce_cost(g, n.children[0], deps, memo);
        break;
      case MvppNodeKind::kBase:
        break;  // unreachable
    }
  }
  memo.emplace(id, cost);
  return cost;
}

struct ExecDelta {
  double blocks = 0;
  double cost = 0;
};

/// Delta size and propagation cost of one node under the executed driver,
/// stopping at the materialized frontier (descendant views contribute the
/// deltas recorded when they were refreshed).
ExecDelta exec_delta_walk(const MvppGraph& g, NodeId id,
                          const MaterializedSet& deps,
                          const std::map<NodeId, double>& base_fractions,
                          const std::map<NodeId, double>& view_deltas,
                          std::map<NodeId, ExecDelta>& memo,
                          std::map<NodeId, double>& produce_memo) {
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  const MvppNode& n = g.node(id);
  ExecDelta info;
  if (n.kind == MvppNodeKind::kBase) {
    const auto it = base_fractions.find(id);
    if (it != base_fractions.end() && it->second > 0) {
      info.blocks = it->second * n.blocks;
      info.cost = info.blocks;  // delta scan
    }
  } else if (deps.contains(id)) {
    const auto it = view_deltas.find(id);
    if (it != view_deltas.end() && it->second > 0) {
      info.blocks = it->second;
      info.cost = info.blocks;
    }
  } else {
    switch (n.kind) {
      case MvppNodeKind::kSelect:
      case MvppNodeKind::kProject: {
        const ExecDelta child =
            exec_delta_walk(g, n.children[0], deps, base_fractions,
                            view_deltas, memo, produce_memo);
        if (child.blocks > 0) {
          const double cb = g.node(n.children[0]).blocks;
          info.blocks = child.blocks * (cb > 0 ? n.blocks / cb : 0);
          info.cost = child.cost +
                      (n.kind == MvppNodeKind::kSelect ? child.blocks : 0);
        }
        break;
      }
      case MvppNodeKind::kJoin: {
        const ExecDelta l =
            exec_delta_walk(g, n.children[0], deps, base_fractions,
                            view_deltas, memo, produce_memo);
        const ExecDelta r =
            exec_delta_walk(g, n.children[1], deps, base_fractions,
                            view_deltas, memo, produce_memo);
        const double lb = g.node(n.children[0]).blocks;
        const double rb = g.node(n.children[1]).blocks;
        const double reduction = lb * rb > 0 ? n.blocks / (lb * rb) : 0;
        info.cost = l.cost + r.cost;
        // Each live side probes the full other side once (hash build on
        // the delta) and the full side is produced from the frontier.
        if (l.blocks > 0) {
          info.cost += l.blocks + rb +
                       frontier_produce_cost(g, n.children[1], deps,
                                             produce_memo);
          info.blocks += l.blocks * rb * reduction;
        }
        if (r.blocks > 0) {
          info.cost += r.blocks + lb +
                       frontier_produce_cost(g, n.children[0], deps,
                                             produce_memo);
          info.blocks += r.blocks * lb * reduction;
        }
        break;
      }
      case MvppNodeKind::kAggregate: {
        const ExecDelta child =
            exec_delta_walk(g, n.children[0], deps, base_fractions,
                            view_deltas, memo, produce_memo);
        if (child.blocks > 0) {
          const double cb = g.node(n.children[0]).blocks;
          info.blocks = child.blocks * (cb > 0 ? n.blocks / cb : 0);
          // Grouped apply: read the child delta and the stored groups.
          info.cost = child.cost + child.blocks + n.blocks;
        }
        break;
      }
      case MvppNodeKind::kQuery:
        info = exec_delta_walk(g, n.children[0], deps, base_fractions,
                               view_deltas, memo, produce_memo);
        break;
      case MvppNodeKind::kBase:
        break;  // handled above
    }
  }
  memo.emplace(id, info);
  return info;
}

}  // namespace

double executed_refresh_estimate(
    const MvppGraph& graph, const MaterializedSet& m,
    const std::map<NodeId, double>& base_fractions) {
  MVD_ASSERT(graph.annotated());
  double total = 0;
  std::map<NodeId, double> view_deltas;
  for (NodeId v : m) {  // ascending = topological, mirroring the driver
    MaterializedSet deps = m;
    deps.erase(v);
    std::map<NodeId, ExecDelta> memo;
    std::map<NodeId, double> produce_memo;
    const ExecDelta info = exec_delta_walk(graph, v, deps, base_fractions,
                                           view_deltas, memo, produce_memo);
    view_deltas.emplace(v, info.blocks);
    if (info.blocks <= 0 && info.cost <= 0) continue;
    double cost = info.cost;
    if (graph.node(v).kind != MvppNodeKind::kAggregate) {
      // Applying the view's own delta: read it and rewrite the stored
      // table (batches with deletes; the aggregate walk charged its
      // grouped apply already).
      cost += info.blocks + graph.node(v).blocks;
    }
    total += cost;
  }
  return total;
}

}  // namespace mvd
