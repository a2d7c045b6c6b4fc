#include "src/mvpp/evaluation.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"

namespace mvd {

MvppEvaluator::MvppEvaluator(const MvppGraph& graph, MaintenancePolicy policy,
                             IndexPolicy index)
    : graph_(&graph),
      policy_(policy),
      index_(index),
      closures_(std::make_shared<const GraphClosures>(graph)) {
  MVD_ASSERT_MSG(graph.annotated(),
                 "MvppGraph must be annotate()d before evaluation");
  placement_.compute_site.assign(graph.size(), 0);
  placement_.storage_site.assign(graph.size(), 0);
}

void MvppEvaluator::set_placement(Placement placement) {
  MVD_ASSERT(placement.price.size() ==
             placement.site_count * placement.site_count);
  MVD_ASSERT(placement.compute_site.size() == graph_->size());
  MVD_ASSERT(placement.storage_site.size() == graph_->size());
  placement_ = std::move(placement);
}

double MvppEvaluator::read_charge(NodeId from, NodeId to, bool stored) const {
  const std::size_t f = static_cast<std::size_t>(from);
  const std::size_t source = stored ? placement_.storage_site[f]
                                    : placement_.compute_site[f];
  return graph_->node(from).blocks *
         placement_.transfer_price(
             source, placement_.compute_site[static_cast<std::size_t>(to)]);
}

double MvppEvaluator::store_charge(NodeId v) const {
  const std::size_t i = static_cast<std::size_t>(v);
  return graph_->node(v).blocks *
         placement_.transfer_price(placement_.compute_site[i],
                                   placement_.storage_site[i]);
}

double MvppEvaluator::op_contribution(const MvppNode& n,
                                      const MaterializedSet& m) const {
  if (!index_.enabled) return n.op_cost;
  const MvppGraph& g = *graph_;
  switch (n.kind) {
    case MvppNodeKind::kSelect: {
      // An equality selection over a stored (indexed) view fetches only
      // its matching blocks.
      const NodeId c = n.children[0];
      if (m.contains(c) && is_pure_equality(n.predicate)) {
        return std::max(1.0, n.blocks);
      }
      return n.op_cost;
    }
    case MvppNodeKind::kJoin: {
      // Index nested loop with a stored view as the inner side, when it
      // beats the block nested loop.
      double best = n.op_cost;
      for (int side = 0; side < 2; ++side) {
        const NodeId inner = n.children[static_cast<std::size_t>(side)];
        const NodeId outer = n.children[static_cast<std::size_t>(1 - side)];
        if (!m.contains(inner)) continue;
        const double probes =
            g.node(outer).rows * index_.probe_cost_blocks;
        best = std::min(best, g.node(outer).blocks + probes);
      }
      return best;
    }
    default:
      return n.op_cost;
  }
}

namespace {

// Flat-array memo for one produce_cost call: values indexed by NodeId,
// validity tracked separately. Stack-free of std::map rebalancing; a
// fresh instance per call keeps the method const and thread-safe.
struct ProduceMemo {
  explicit ProduceMemo(std::size_t n) : value(n, 0.0), known(n, 0) {}
  std::vector<double> value;
  std::vector<char> known;
};

double produce_walk(const MvppEvaluator& eval, NodeId v,
                    const MaterializedSet& m, ProduceMemo& memo) {
  const std::size_t i = static_cast<std::size_t>(v);
  if (memo.known[i]) return memo.value[i];
  const MvppGraph& g = eval.graph();
  const MvppNode& n = g.node(v);
  MVD_ASSERT_MSG(n.kind != MvppNodeKind::kQuery,
                 "produce_cost over a query root; use its child");
  double cost = 0;
  if (n.kind != MvppNodeKind::kBase) {
    cost = eval.op_contribution(n, m);
    for (NodeId c : n.children) {
      const bool base = g.node(c).kind == MvppNodeKind::kBase;
      const bool member = !base && m.contains(c);
      if (!base && !member) cost += produce_walk(eval, c, m, memo);
      cost += eval.read_charge(c, v, member);
    }
  }
  memo.known[i] = 1;
  memo.value[i] = cost;
  return cost;
}

}  // namespace

double MvppEvaluator::produce_cost(NodeId v, const MaterializedSet& m) const {
  ProduceMemo memo(graph_->size());
  return produce_walk(*this, v, m, memo);
}

double MvppEvaluator::answer_cost(NodeId query, const MaterializedSet& m) const {
  const MvppNode& q = graph_->node(query);
  MVD_ASSERT(q.kind == MvppNodeKind::kQuery);
  const NodeId result = q.children[0];
  const bool member = m.contains(result);
  const double read =
      member ? graph_->node(result).blocks : produce_cost(result, m);
  return read + read_charge(result, query, member);
}

double MvppEvaluator::query_processing_cost(const MaterializedSet& m) const {
  double total = 0;
  for (NodeId q : closures_->query_ids()) {
    total += graph_->node(q).frequency * answer_cost(q, m);
  }
  return total;
}

double MvppEvaluator::update_factor(NodeId v) const {
  // Frequencies are read live (set_frequency what-ifs stay valid); only
  // the Iv membership comes from the precomputed closure, in the same
  // ascending order as the legacy bases_under() walk.
  double factor = 0;
  for (NodeId b : closures_->bases_under(v)) {
    const double fu = graph_->node(b).frequency;
    if (policy_.mode == MaintenancePolicy::Mode::kBatchRecompute) {
      factor = std::max(factor, fu);
    } else {
      factor += fu;
    }
  }
  return factor;
}

double MvppEvaluator::maintenance_cost(NodeId v, const MaterializedSet& m) const {
  MVD_ASSERT_MSG(graph_->node(v).is_operation(),
                 "only operation nodes can be maintained");
  const double recompute = policy_.reuse_materialized
                               ? produce_cost(v, m)
                               : produce_cost(v, MaterializedSet{});
  return update_factor(v) * (recompute + store_charge(v));
}

double MvppEvaluator::total_maintenance_cost(const MaterializedSet& m) const {
  double total = 0;
  for (NodeId v : m) total += maintenance_cost(v, m);
  return total;
}

MvppCosts MvppEvaluator::evaluate(const MaterializedSet& m) const {
  check_materializable(m);
  return MvppCosts{query_processing_cost(m), total_maintenance_cost(m)};
}

double MvppEvaluator::total_cost(const MaterializedSet& m) const {
  return evaluate(m).total();
}

double MvppEvaluator::weight(NodeId v) const {
  const MvppNode& n = graph_->node(v);
  MVD_ASSERT(n.is_operation());
  double access_saving = 0;
  for (NodeId q : closures_->queries_using(v)) {
    access_saving += graph_->node(q).frequency * n.full_cost;
  }
  return access_saving - update_factor(v) * n.full_cost;
}

void MvppEvaluator::check_materializable(const MaterializedSet& m) const {
  for (NodeId v : m) {
    if (!graph_->node(v).is_operation()) {
      throw PlanError("node '" + graph_->node(v).name +
                      "' is not a materializable operation node");
    }
  }
}

std::string to_string(const MvppGraph& graph, const MaterializedSet& m) {
  std::vector<std::string> names;
  for (NodeId v : m) names.push_back(graph.node(v).name);
  std::sort(names.begin(), names.end());
  std::string out = "{";
  out += join(names, ", ");
  out += '}';
  return out;
}

}  // namespace mvd
