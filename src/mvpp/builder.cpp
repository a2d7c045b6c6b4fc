#include "src/mvpp/builder.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/common/strings.hpp"
#include "src/lint/lint.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

MvppBuilder::MvppBuilder(const Optimizer& optimizer)
    : optimizer_(&optimizer) {}

namespace {

// A piece of a join pattern: either a bare base relation or a previously
// created pattern node.
struct PatternRef {
  int pattern = -1;   // index into patterns when >= 0
  std::string base;   // relation name when pattern < 0
  bool is_base() const { return pattern < 0; }
};

// A pure join-pattern node over base relations (selections/projections
// conceptually pushed up during the merge phase).
struct Pattern {
  PatternRef left;
  PatternRef right;
  std::vector<JoinPredicate> preds_here;   // conjuncts applied at this node
  std::set<std::string> bases;             // base relations underneath
  std::set<std::string> internal_preds;    // canonical conjuncts underneath
};

std::string pattern_key(const std::set<std::string>& bases,
                        const std::set<std::string>& preds) {
  std::string key;
  for (const std::string& b : bases) key += b + ",";
  key += "|";
  for (const std::string& p : preds) key += p + "&";
  return key;
}

class MergeState {
 public:
  // Integrate one query's join pattern; returns the query's top piece.
  PatternRef integrate(const QuerySpec& spec,
                       const std::vector<std::string>& join_order) {
    const std::set<std::string> rels(spec.relations().begin(),
                                     spec.relations().end());
    std::set<std::string> qpreds;
    for (const JoinPredicate& j : spec.joins()) qpreds.insert(j.canonical());

    // 4.3.1: find reusable existing subtrees — base sets contained in the
    // query whose internal predicates agree exactly with the query's
    // predicates over those bases.
    std::vector<int> usable;
    for (int p = 0; p < static_cast<int>(patterns_.size()); ++p) {
      const Pattern& pat = patterns_[static_cast<std::size_t>(p)];
      if (!std::includes(rels.begin(), rels.end(), pat.bases.begin(),
                         pat.bases.end())) {
        continue;
      }
      if (pat.internal_preds !=
          preds_within(spec, qpreds, pat.bases)) {
        continue;
      }
      usable.push_back(p);
    }
    // Greedy largest-first, non-overlapping.
    std::sort(usable.begin(), usable.end(), [&](int a, int b) {
      const std::size_t sa = patterns_[static_cast<std::size_t>(a)].bases.size();
      const std::size_t sb = patterns_[static_cast<std::size_t>(b)].bases.size();
      if (sa != sb) return sa > sb;
      return a < b;
    });
    std::set<std::string> covered;
    std::vector<PatternRef> pieces;
    for (int p : usable) {
      const Pattern& pat = patterns_[static_cast<std::size_t>(p)];
      const bool overlaps = std::any_of(
          pat.bases.begin(), pat.bases.end(),
          [&](const std::string& b) { return covered.contains(b); });
      if (overlaps) continue;
      covered.insert(pat.bases.begin(), pat.bases.end());
      pieces.push_back(PatternRef{p, {}});
    }
    for (const std::string& r : spec.relations()) {
      if (!covered.contains(r)) pieces.push_back(PatternRef{-1, r});
    }

    // 4.3.2: combine the pieces following the query's own join order —
    // repeatedly attach the piece containing the earliest not-yet-placed
    // relation of `join_order`.
    auto piece_bases = [&](const PatternRef& ref) -> std::set<std::string> {
      if (ref.is_base()) return {ref.base};
      return patterns_[static_cast<std::size_t>(ref.pattern)].bases;
    };
    auto next_piece = [&](const std::set<std::string>& placed) -> int {
      for (const std::string& r : join_order) {
        if (placed.contains(r)) continue;
        for (std::size_t i = 0; i < pieces.size(); ++i) {
          if (piece_bases(pieces[i]).contains(r)) return static_cast<int>(i);
        }
      }
      return -1;
    };

    std::set<std::string> placed;
    const int first = next_piece(placed);
    MVD_ASSERT(first >= 0);
    PatternRef current = pieces[static_cast<std::size_t>(first)];
    pieces.erase(pieces.begin() + first);
    auto cb = piece_bases(current);
    placed.insert(cb.begin(), cb.end());

    while (!pieces.empty()) {
      const int idx = next_piece(placed);
      MVD_ASSERT(idx >= 0);
      PatternRef next = pieces[static_cast<std::size_t>(idx)];
      pieces.erase(pieces.begin() + idx);
      const std::set<std::string> nb = piece_bases(next);

      // Join conjuncts of the query linking the two sides.
      std::vector<JoinPredicate> linking;
      for (const JoinPredicate& j : spec.joins()) {
        const std::string lr = j.left_relation();
        const std::string rr = j.right_relation();
        if ((placed.contains(lr) && nb.contains(rr)) ||
            (placed.contains(rr) && nb.contains(lr))) {
          linking.push_back(j);
        }
      }
      current = make_pattern(current, next, std::move(linking));
      placed.insert(nb.begin(), nb.end());
    }
    return current;
  }

  const std::vector<Pattern>& patterns() const { return patterns_; }

 private:
  // Canonical query join conjuncts with both sides inside `bases`.
  static std::set<std::string> preds_within(
      const QuerySpec& spec, const std::set<std::string>& qpreds,
      const std::set<std::string>& bases) {
    (void)qpreds;
    std::set<std::string> out;
    for (const JoinPredicate& j : spec.joins()) {
      if (bases.contains(j.left_relation()) &&
          bases.contains(j.right_relation())) {
        out.insert(j.canonical());
      }
    }
    return out;
  }

  PatternRef make_pattern(PatternRef left, PatternRef right,
                          std::vector<JoinPredicate> preds) {
    Pattern pat;
    pat.left = left;
    pat.right = right;
    pat.preds_here = std::move(preds);
    auto absorb = [&](const PatternRef& ref) {
      if (ref.is_base()) {
        pat.bases.insert(ref.base);
      } else {
        const Pattern& child = patterns_[static_cast<std::size_t>(ref.pattern)];
        pat.bases.insert(child.bases.begin(), child.bases.end());
        pat.internal_preds.insert(child.internal_preds.begin(),
                                  child.internal_preds.end());
      }
    };
    absorb(left);
    absorb(right);
    for (const JoinPredicate& j : pat.preds_here) {
      pat.internal_preds.insert(j.canonical());
    }

    const std::string key = pattern_key(pat.bases, pat.internal_preds);
    if (auto it = index_.find(key); it != index_.end()) {
      return PatternRef{it->second, {}};
    }
    patterns_.push_back(std::move(pat));
    const int id = static_cast<int>(patterns_.size()) - 1;
    index_.emplace(key, id);
    return PatternRef{id, {}};
  }

  std::vector<Pattern> patterns_;
  std::map<std::string, int> index_;
};

// Decide, per base relation, the shared pushed-down selection and which
// queries need residual conditions above the shared joins (steps 5–6).
struct LeafPlan {
  ExprPtr shared_select;                       // nullptr: no shared select
  std::map<std::string, ExprPtr> residuals;    // query name -> residual
  std::vector<std::string> columns;            // pushed-down projection
  bool project = false;                        // emit the projection node?
};

LeafPlan plan_leaf(const std::string& relation,
                   const std::vector<const QuerySpec*>& users,
                   const Schema& scan_schema) {
  LeafPlan plan;

  // Per-query selection conjunction on this relation (normalized).
  std::map<std::string, ExprPtr> conditions;  // query name -> conj or null
  bool all_have_condition = true;
  std::vector<ExprPtr> distinct_terms;
  for (const QuerySpec* q : users) {
    ExprPtr c = conj(q->selections_on(relation));
    if (c == nullptr) {
      all_have_condition = false;
    } else {
      c = normalize(c);
      const bool seen = std::any_of(
          distinct_terms.begin(), distinct_terms.end(),
          [&](const ExprPtr& t) { return t->to_string() == c->to_string(); });
      if (!seen) distinct_terms.push_back(c);
    }
    conditions[q->name()] = c;
  }

  if (all_have_condition && !distinct_terms.empty()) {
    plan.shared_select = distinct_terms.size() == 1
                             ? distinct_terms.front()
                             : normalize(disj(distinct_terms));
  }
  // Residual: the query's own condition when the shared node is weaker.
  for (const QuerySpec* q : users) {
    const ExprPtr& own = conditions[q->name()];
    if (own == nullptr) continue;
    const bool exact = plan.shared_select != nullptr &&
                       plan.shared_select->to_string() == own->to_string();
    if (!exact) plan.residuals[q->name()] = own;
  }

  // Pushed-down projection: union over queries of the columns each needs
  // above the leaf — output columns, join columns, columns of selections
  // still applied above (residuals and multi-relation selections).
  std::set<std::string> needed;
  auto add_on_relation = [&](const std::string& qualified) {
    if (qualified.rfind(relation + ".", 0) == 0) needed.insert(qualified);
  };
  for (const QuerySpec* q : users) {
    for (const std::string& c : q->projection()) add_on_relation(c);
    for (const JoinPredicate& j : q->joins()) {
      add_on_relation(j.left_column);
      add_on_relation(j.right_column);
    }
    for (const ExprPtr& s : q->multi_relation_selections()) {
      for (const std::string& c : columns_of(s)) add_on_relation(c);
    }
    if (auto it = plan.residuals.find(q->name()); it != plan.residuals.end()) {
      for (const std::string& c : columns_of(it->second)) add_on_relation(c);
    }
  }
  for (const Attribute& a : scan_schema.attributes()) {
    if (needed.contains(a.qualified())) plan.columns.push_back(a.qualified());
  }
  plan.project =
      !plan.columns.empty() && plan.columns.size() < scan_schema.size();
  return plan;
}

}  // namespace

MvppBuilder::JoinOrders MvppBuilder::join_orders(
    const std::vector<QuerySpec>& queries) const {
  JoinOrders orders;
  orders.reserve(queries.size());
  for (const QuerySpec& q : queries) {
    orders.push_back(optimizer_->optimal_join_order(q));
  }
  if (counters_enabled()) {
    MetricsRegistry::global().counter("mvpp/build/join_orders")
        .add(static_cast<double>(queries.size()));
  }
  return orders;
}

std::vector<std::size_t> MvppBuilder::initial_order(
    const std::vector<QuerySpec>& queries) const {
  return initial_order(queries, join_orders(queries));
}

std::vector<std::size_t> MvppBuilder::initial_order(
    const std::vector<QuerySpec>& queries,
    const JoinOrders& join_orders) const {
  std::vector<double> score(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const PlanPtr plan = optimizer_->optimize(queries[i], join_orders[i]);
    score[i] = queries[i].frequency() *
               optimizer_->cost_model().full_cost(plan);
  }
  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  return order;
}

MvppBuildResult MvppBuilder::build(const std::vector<QuerySpec>& queries,
                                   const std::vector<std::size_t>& order) const {
  if (queries.empty()) throw PlanError("cannot build an MVPP with no queries");
  if (order.size() != queries.size()) {
    throw PlanError("merge order must be a permutation of the query indices");
  }
  {
    std::set<std::size_t> seen(order.begin(), order.end());
    if (seen.size() != order.size() || *seen.rbegin() != order.size() - 1) {
      throw PlanError("merge order must be a permutation of the query indices");
    }
  }
  return build(queries, order, join_orders(queries));
}

MvppBuildResult MvppBuilder::build(const std::vector<QuerySpec>& queries,
                                   const std::vector<std::size_t>& order,
                                   const JoinOrders& join_orders) const {
  TraceSpan build_span("mvpp", "build");

  const Catalog& catalog = optimizer_->cost_model().catalog();

  // Phase 1: merge join patterns in the requested order.
  MergeState merge;
  std::map<std::string, PatternRef> query_top;  // query name -> top piece
  MvppBuildResult result;
  for (std::size_t idx : order) {
    const QuerySpec& q = queries[idx];
    query_top[q.name()] = merge.integrate(q, join_orders[idx]);
    result.merge_order.push_back(q.name());
  }

  // Phase 2: per-leaf pushdown decisions.
  std::map<std::string, std::vector<const QuerySpec*>> users_of;
  for (const QuerySpec& q : queries) {
    for (const std::string& r : q.relations()) users_of[r].push_back(&q);
  }
  std::map<std::string, LeafPlan> leaf_plans;
  std::map<std::string, NodeId> leaf_unit;  // relation -> unit top node
  MvppGraph& g = result.graph;
  for (const auto& [relation, users] : users_of) {
    const Schema schema = make_scan(catalog, relation)->output_schema();
    LeafPlan plan = plan_leaf(relation, users, schema);
    NodeId unit =
        g.add_base(relation, schema, catalog.update_frequency(relation));
    if (plan.shared_select != nullptr) {
      unit = g.add_select(unit, plan.shared_select);
    }
    if (plan.project) unit = g.add_project(unit, plan.columns);
    leaf_unit[relation] = unit;
    leaf_plans[relation] = std::move(plan);
  }

  // Phase 3: emit join-pattern nodes (children precede parents by
  // construction order).
  std::vector<NodeId> pattern_node(merge.patterns().size(), -1);
  auto ref_node = [&](const PatternRef& ref) -> NodeId {
    if (ref.is_base()) return leaf_unit.at(ref.base);
    const NodeId id = pattern_node[static_cast<std::size_t>(ref.pattern)];
    MVD_ASSERT(id >= 0);
    return id;
  };
  for (std::size_t p = 0; p < merge.patterns().size(); ++p) {
    const Pattern& pat = merge.patterns()[p];
    std::vector<ExprPtr> preds;
    for (const JoinPredicate& j : pat.preds_here) preds.push_back(j.expr());
    ExprPtr pred = preds.empty() ? lit(Value::boolean(true))
                                 : conj(std::move(preds));
    pattern_node[p] =
        g.add_join(ref_node(pat.left), ref_node(pat.right), pred);
  }

  // Phase 4: per-query private path — residual selection, projection,
  // query root.
  for (std::size_t idx : order) {
    const QuerySpec& q = queries[idx];
    NodeId top = ref_node(query_top.at(q.name()));
    std::vector<ExprPtr> residual;
    for (const std::string& r : q.relations()) {
      const LeafPlan& lp = leaf_plans.at(r);
      if (auto it = lp.residuals.find(q.name()); it != lp.residuals.end()) {
        residual.push_back(it->second);
      }
    }
    for (const ExprPtr& s : q.multi_relation_selections()) {
      residual.push_back(s);
    }
    if (!residual.empty()) {
      top = g.add_select(top, conj(std::move(residual)));
    }
    if (q.has_aggregation()) {
      top = g.add_aggregate(top, q.group_by(), q.aggregates());
    } else {
      top = g.add_project(top, q.projection());
    }
    g.add_query(q.name(), q.frequency(), top);
  }

  {
    MVD_TRACE_SPAN("mvpp", "annotate");
    g.annotate(optimizer_->cost_model());
  }
  if (build_span.active()) {
    build_span.arg("queries", static_cast<double>(queries.size()));
    build_span.arg("nodes", static_cast<double>(g.size()));
    build_span.arg("patterns", static_cast<double>(merge.patterns().size()));
  }
  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("mvpp/build/builds").increment();
    reg.counter("mvpp/build/nodes").add(static_cast<double>(g.size()));
    reg.counter("mvpp/build/join_patterns")
        .add(static_cast<double>(merge.patterns().size()));
  }
  {
    LintContext ctx;
    ctx.graph = &g;
    ctx.cost_model = &optimizer_->cost_model();
    lint_stage_hook("build", ctx);
  }
  return result;
}

std::vector<MvppBuildResult> MvppBuilder::build_all_rotations(
    const std::vector<QuerySpec>& queries, std::size_t threads) const {
  MVD_TRACE_SPAN("mvpp", "build-all-rotations");
  if (counters_enabled()) {
    MetricsRegistry::global().counter("mvpp/build/rotations")
        .add(static_cast<double>(queries.size()));
  }
  // One join-order search per query; the initial ordering and every
  // rotation's merge read these.
  const JoinOrders searched = join_orders(queries);
  std::vector<std::size_t> order = initial_order(queries, searched);
  std::vector<std::vector<std::size_t>> orders;
  orders.reserve(queries.size());
  for (std::size_t k = 0; k < queries.size(); ++k) {
    orders.push_back(order);
    std::rotate(order.begin(), order.begin() + 1, order.end());
  }
  // Each rotation is an independent merge over const state (optimizer,
  // cost model, catalog), so the k builds run concurrently and land in
  // their rotation's slot — identical output to the serial loop.
  std::vector<MvppBuildResult> out(orders.size());
  parallel_for_each_index(orders.size(), threads, [&](std::size_t i) {
    out[i] = build(queries, orders[i], searched);
  });
  return out;
}

MvppChoice choose_best_mvpp(const std::vector<MvppBuildResult>& candidates,
                            MaintenancePolicy policy,
                            const SelectionAlgorithm& algorithm) {
  if (candidates.empty()) throw PlanError("no MVPP candidates to choose from");
  const SelectionAlgorithm algo =
      algorithm ? algorithm : [](const MvppEvaluator& eval) {
        return yang_heuristic(eval);
      };
  MvppChoice best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    MvppEvaluator eval(candidates[i].graph, policy);
    SelectionResult sel = algo(eval);
    if (sel.costs.total() < best_cost) {
      best_cost = sel.costs.total();
      best.index = i;
      best.selection = std::move(sel);
    }
  }
  return best;
}

}  // namespace mvd
