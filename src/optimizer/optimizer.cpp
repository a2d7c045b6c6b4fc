#include "src/optimizer/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "src/algebra/aggregate.hpp"
#include "src/check/implication.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

Optimizer::Optimizer(const CostModel& cost_model, OptimizerConfig config)
    : cost_model_(&cost_model), config_(config) {}

PlanPtr Optimizer::relation_unit(const QuerySpec& spec,
                                 const std::string& relation,
                                 const PlanPlacement& placement) const {
  PlanPtr plan = make_scan(cost_model_->catalog(), relation);
  if (placement.push_selections_down) {
    std::vector<ExprPtr> preds = spec.selections_on(relation);
    if (!preds.empty()) plan = make_select(plan, conj(std::move(preds)));
  }
  if (placement.push_projections_down) {
    const std::set<std::string> used = spec.used_columns(relation);
    // Keep schema order; skip the projection when it keeps everything.
    std::vector<std::string> cols;
    for (const Attribute& a : plan->output_schema().attributes()) {
      if (used.contains(a.qualified())) cols.push_back(a.qualified());
    }
    if (!cols.empty() && cols.size() < plan->output_schema().size()) {
      plan = make_project(plan, cols);
    }
  }
  return plan;
}

namespace {

// Join conjuncts of `spec` linking `placed` to `next`, removing them from
// `remaining`.
std::vector<ExprPtr> take_applicable_joins(
    std::vector<JoinPredicate>& remaining,
    const std::set<std::string>& placed, const std::string& next) {
  std::vector<ExprPtr> out;
  for (auto it = remaining.begin(); it != remaining.end();) {
    const std::string lr = it->left_relation();
    const std::string rr = it->right_relation();
    const bool connects = (placed.contains(lr) && rr == next) ||
                          (placed.contains(rr) && lr == next);
    if (connects) {
      out.push_back(it->expr());
      it = remaining.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

}  // namespace

PlanPtr Optimizer::build_plan(const QuerySpec& spec,
                              const std::vector<std::string>& order,
                              const PlanPlacement& placement) const {
  if (order.size() != spec.relations().size()) {
    throw PlanError("join order size mismatch");
  }
  for (const std::string& r : order) {
    if (std::find(spec.relations().begin(), spec.relations().end(), r) ==
        spec.relations().end()) {
      throw PlanError("join order names relation '" + r +
                      "' absent from the query");
    }
  }

  std::vector<JoinPredicate> remaining = spec.joins();
  std::set<std::string> placed{order.front()};
  PlanPtr plan = relation_unit(spec, order.front(), placement);

  for (std::size_t i = 1; i < order.size(); ++i) {
    PlanPtr right = relation_unit(spec, order[i], placement);
    std::vector<ExprPtr> preds =
        take_applicable_joins(remaining, placed, order[i]);
    ExprPtr joined = preds.empty() ? lit(Value::boolean(true))
                                   : conj(std::move(preds));
    plan = make_join(std::move(plan), std::move(right), joined);
    placed.insert(order[i]);
  }
  MVD_ASSERT_MSG(remaining.empty(), "unapplied join predicates remain");

  std::vector<ExprPtr> top;
  if (!placement.push_selections_down) {
    for (const ExprPtr& s : spec.selections()) top.push_back(s);
  } else {
    for (const ExprPtr& s : spec.multi_relation_selections()) top.push_back(s);
  }
  if (!top.empty()) plan = make_select(std::move(plan), conj(std::move(top)));
  return apply_query_output(std::move(plan), spec);
}

namespace {

// Nodes of a relation unit: a scan under at most a select and a project.
std::size_t chain_length(const PlanPtr& plan) {
  std::size_t nodes = 1;
  for (const LogicalOp* p = plan.get(); !p->children().empty();
       p = p->children()[0].get()) {
    ++nodes;
  }
  return nodes;
}

}  // namespace

JoinOrder Optimizer::best_join_order(const QuerySpec& spec) const {
  MVD_TRACE_SPAN("optimizer", "join-order");
  const std::vector<std::string>& rels = spec.relations();
  const std::size_t n = rels.size();
  if (n > 20) throw PlanError("too many relations for subset-DP join search");

  const PlanPlacement pushed{true, true};
  auto index_of = [&](const std::string& r) {
    return static_cast<std::size_t>(
        std::find(rels.begin(), rels.end(), r) - rels.begin());
  };

  // The best left-deep prefix over each relation subset: its Ca, the
  // subset it extends and the relation it joins last. Its plan and
  // estimate are built when the search first extends it; a single
  // relation's prefix is its unit.
  struct Prefix {
    double cost = std::numeric_limits<double>::infinity();
    std::size_t prev = 0;
    std::size_t last = 0;
    PlanPtr plan;
    NodeEstimate estimate;
  };
  std::vector<Prefix> dp(std::size_t{1} << n);
  std::size_t estimated = 0;
  for (std::size_t r = 0; r < n; ++r) {
    Prefix& unit = dp[std::size_t{1} << r];
    unit.last = r;
    unit.plan = relation_unit(spec, rels[r], pushed);
    // Cost of the unit alone: producing its (selected/projected) result.
    unit.cost = cost_model_->full_cost(unit.plan, &unit.estimate);
    estimated += chain_length(unit.plan);
  }

  // Join conjuncts as relation-index pairs, in the query's order, and the
  // adjacency they induce.
  struct Link {
    std::size_t left;
    std::size_t right;
    ExprPtr expr;
  };
  std::vector<Link> links;
  std::vector<std::uint32_t> adjacent(n, 0);
  for (const JoinPredicate& j : spec.joins()) {
    const std::size_t a = index_of(j.left_relation());
    const std::size_t b = index_of(j.right_relation());
    links.push_back({a, b, j.expr()});
    adjacent[a] |= 1u << b;
    adjacent[b] |= 1u << a;
  }

  // Joins dp[mask] to its last relation's unit: the conjuncts linking that
  // relation to the prefix it extends, in the query's order.
  auto materialize = [&](std::size_t mask) {
    Prefix& s = dp[mask];
    const Prefix& prefix = dp[s.prev];
    const Prefix& unit = dp[std::size_t{1} << s.last];
    std::vector<ExprPtr> preds;
    for (const Link& l : links) {
      if ((l.left == s.last && (s.prev >> l.right & 1)) ||
          (l.right == s.last && (s.prev >> l.left & 1))) {
        preds.push_back(l.expr);
      }
    }
    ExprPtr joined = preds.empty() ? lit(Value::boolean(true))
                                   : conj(std::move(preds));
    s.plan = make_join(prefix.plan, unit.plan, joined);
    const NodeEstimate* inputs[] = {&prefix.estimate, &unit.estimate};
    s.estimate = cost_model_->estimate(*s.plan, inputs);
    ++estimated;
  };

  const std::size_t full = (std::size_t{1} << n) - 1;
  auto search = [&](bool connected_only) {
    for (std::size_t mask = 1; mask <= full; ++mask) {
      if (!std::isfinite(dp[mask].cost)) continue;
      if (mask == full) break;
      if (dp[mask].plan == nullptr) materialize(mask);
      const Prefix& s = dp[mask];
      // Which relations may extend this set?
      std::uint32_t frontier = 0;
      for (std::size_t r = 0; r < n; ++r) {
        if (mask & (std::size_t{1} << r)) frontier |= adjacent[r];
      }
      frontier &= ~static_cast<std::uint32_t>(mask);
      const bool use_connected = connected_only && frontier != 0;
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t bit = std::size_t{1} << r;
        if (mask & bit) continue;
        if (use_connected && !(frontier & bit)) continue;
        // Ca of the prefix joined to r's unit, summed as full_cost sums
        // it: the join, then each input that is not a bare scan.
        const Prefix& unit = dp[bit];
        double cost =
            cost_model_->join_op_cost(s.estimate.blocks, unit.estimate.blocks);
        if (s.plan->kind() != OpKind::kScan) cost += s.cost;
        if (unit.plan->kind() != OpKind::kScan) cost += unit.cost;
        Prefix& next = dp[mask | bit];
        if (cost < next.cost) {
          next.cost = cost;
          next.prev = mask;
          next.last = r;
        }
      }
    }
    return std::isfinite(dp[full].cost);
  };

  // The pruned search lets a finished component take any relation, so a
  // disconnected join graph gets cross joins; a search that still
  // reaches no full order runs again without the pruning.
  bool found = search(config_.connected_subsets_only);
  if (!found && config_.connected_subsets_only && n > 1) {
    for (std::size_t mask = 1; mask <= full; ++mask) {
      if ((mask & (mask - 1)) != 0) dp[mask] = Prefix{};
    }
    found = search(false);
  }
  if (counters_enabled()) {
    MetricsRegistry::global().counter("cost/node_estimates")
        .add(static_cast<double>(estimated));
  }
  if (!found) {
    throw PlanError("no finite-cost join order for query '" + spec.name() +
                    "'");
  }
  JoinOrder best;
  best.cost = dp[full].cost;
  for (std::size_t mask = full; mask != 0; mask = dp[mask].prev) {
    best.relations.push_back(rels[dp[mask].last]);
  }
  std::reverse(best.relations.begin(), best.relations.end());
  return best;
}

std::vector<std::string> Optimizer::optimal_join_order(
    const QuerySpec& spec) const {
  return best_join_order(spec).relations;
}

PlanPtr Optimizer::optimize(const QuerySpec& spec) const {
  return optimize(spec, optimal_join_order(spec));
}

PlanPtr Optimizer::optimize(const QuerySpec& spec,
                            const std::vector<std::string>& order) const {
  return simplify_plan_predicates(
      build_plan(spec, order, PlanPlacement{true, true}));
}

PlanPtr Optimizer::optimize_pushed_up(const QuerySpec& spec) const {
  return build_plan(spec, optimal_join_order(spec),
                    PlanPlacement{false, false});
}

namespace {

ExprPtr literal_false() { return lit(Value::boolean(false)); }

bool is_bool_literal(const ExprPtr& e, bool value) {
  if (e->kind() != ExprKind::kLiteral) return false;
  const Value& v = static_cast<const LiteralExpr&>(*e).value();
  return v.type() == ValueType::kBool && v.as_bool() == value;
}

/// Facts guaranteed on rows flowing out of `plan`, collected from the
/// select chain at its top (selects are schema-preserving, so every
/// predicate binds against plan->output_schema()).
void chain_facts(const PlanPtr& plan, PredicateFacts& facts) {
  const LogicalOp* n = plan.get();
  while (n->kind() == OpKind::kSelect) {
    const auto& sel = static_cast<const SelectOp&>(*n);
    for (const ExprPtr& c : conjuncts_of(sel.predicate())) facts.add(c);
    n = n->children()[0].get();
  }
}

struct Simplifier {
  std::map<const LogicalOp*, PlanPtr> memo;  // keeps shared nodes shared

  PlanPtr simplify(const PlanPtr& plan) {
    const auto hit = memo.find(plan.get());
    if (hit != memo.end()) return hit->second;
    PlanPtr out = rewrite(plan);
    memo.emplace(plan.get(), out);
    return out;
  }

  PlanPtr rewrite(const PlanPtr& plan) {
    switch (plan->kind()) {
      case OpKind::kScan:
        return plan;
      case OpKind::kSelect: {
        const auto& sel = static_cast<const SelectOp&>(*plan);
        PlanPtr child = simplify(plan->children()[0]);
        PredicateFacts facts(child->output_schema());
        chain_facts(child, facts);
        bool changed = child != plan->children()[0];
        std::vector<ExprPtr> kept;
        for (const ExprPtr& raw : conjuncts_of(sel.predicate())) {
          const ExprPtr c = fold_constants(raw);
          if (c != raw) changed = true;
          if (is_bool_literal(c, true)) {
            changed = true;
            continue;
          }
          if (is_bool_literal(c, false)) {
            return make_select(std::move(child), literal_false());
          }
          if (c->kind() != ExprKind::kLiteral && facts.entails(c)) {
            changed = true;
            continue;
          }
          facts.add(c);
          kept.push_back(c);
        }
        if (facts.contradictory()) {
          return make_select(std::move(child), literal_false());
        }
        if (kept.empty()) return child;  // every conjunct was a no-op here
        if (!changed) return plan;
        return make_select(std::move(child), conj(std::move(kept)));
      }
      case OpKind::kProject: {
        const auto& proj = static_cast<const ProjectOp&>(*plan);
        PlanPtr child = simplify(plan->children()[0]);
        if (child == plan->children()[0]) return plan;
        return make_project(std::move(child), proj.columns());
      }
      case OpKind::kJoin: {
        const auto& join = static_cast<const JoinOp&>(*plan);
        PlanPtr left = simplify(plan->children()[0]);
        PlanPtr right = simplify(plan->children()[1]);
        bool changed =
            left != plan->children()[0] || right != plan->children()[1];
        std::vector<ExprPtr> kept;
        bool contradiction = false;
        for (const ExprPtr& raw : conjuncts_of(join.predicate())) {
          const ExprPtr c = fold_constants(raw);
          if (c != raw) changed = true;
          if (is_bool_literal(c, true)) {
            changed = true;
            continue;
          }
          if (is_bool_literal(c, false)) {
            contradiction = true;
            break;
          }
          kept.push_back(c);
        }
        if (contradiction) {
          return make_join(std::move(left), std::move(right), literal_false());
        }
        if (!changed) return plan;
        // A join needs a predicate; an all-true one degenerates to the
        // cross-join literal the optimizer itself uses.
        ExprPtr pred = kept.empty() ? lit(Value::boolean(true))
                                    : conj(std::move(kept));
        return make_join(std::move(left), std::move(right), std::move(pred));
      }
      case OpKind::kAggregate: {
        const auto& agg = static_cast<const AggregateOp&>(*plan);
        PlanPtr child = simplify(plan->children()[0]);
        if (child == plan->children()[0]) return plan;
        return make_aggregate(std::move(child), agg.group_by(),
                              agg.aggregates());
      }
    }
    return plan;
  }
};

}  // namespace

PlanPtr simplify_plan_predicates(const PlanPtr& plan) {
  Simplifier s;
  return s.simplify(plan);
}

}  // namespace mvd
