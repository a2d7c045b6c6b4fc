#include "src/optimizer/view_rewrite.hpp"

#include <algorithm>
#include <string_view>

#include "src/check/implication.hpp"
#include "src/optimizer/optimizer.hpp"

namespace mvd {

namespace {

/// Count aggregate nodes anywhere in the tree.
std::size_t count_aggregates(const PlanPtr& plan) {
  std::size_t n = plan->kind() == OpKind::kAggregate ? 1 : 0;
  for (const PlanPtr& c : plan->children()) n += count_aggregates(c);
  return n;
}

/// Collect relations and base-space conjuncts below any aggregation.
/// Returns false (with a reason) on shapes outside the fragment.
bool walk_spj(const PlanPtr& plan, ViewDef& def, std::string& reason) {
  switch (plan->kind()) {
    case OpKind::kScan:
      def.relations.insert(static_cast<const ScanOp&>(*plan).relation());
      return true;
    case OpKind::kSelect: {
      const auto& sel = static_cast<const SelectOp&>(*plan);
      for (const ExprPtr& c : conjuncts_of(sel.predicate())) {
        def.conjuncts.push_back(c);
      }
      return walk_spj(plan->children()[0], def, reason);
    }
    case OpKind::kProject:
      return walk_spj(plan->children()[0], def, reason);
    case OpKind::kJoin: {
      const auto& join = static_cast<const JoinOp&>(*plan);
      if (join.predicate() != nullptr) {
        for (const ExprPtr& c : conjuncts_of(join.predicate())) {
          def.conjuncts.push_back(c);
        }
      }
      return walk_spj(join.left(), def, reason) &&
             walk_spj(join.right(), def, reason);
    }
    case OpKind::kAggregate:
      reason = "interior aggregate";
      return false;
  }
  reason = "unknown operator";
  return false;
}

bool contains_all(const Schema& schema, const std::vector<std::string>& cols) {
  return std::all_of(cols.begin(), cols.end(), [&](const std::string& c) {
    return schema.contains(c);
  });
}

/// Every column of `e` is a grouping column of the view (the only
/// base-space columns with per-row meaning in an aggregate view's rows).
bool over_group_columns(const ExprPtr& e,
                        const std::vector<std::string>& group_by) {
  for (const std::string& c : columns_of(e)) {
    if (std::find(group_by.begin(), group_by.end(), c) == group_by.end()) {
      return false;
    }
  }
  return true;
}

/// The stored aggregate of `view` that can answer `want`, if any. COUNT
/// matches any stored COUNT (no NULLs in the engine, so COUNT(x) ==
/// COUNT(*)); the rest match on (fn, input column).
const AggSpec* stored_aggregate(const ViewDef& view, const AggSpec& want) {
  for (const AggSpec& have : view.aggregates) {
    if (have.fn != want.fn) continue;
    if (want.fn == AggFn::kCount || have.column == want.column) {
      if (view.output.contains(have.alias)) return &have;
    }
  }
  return nullptr;
}

}  // namespace

ViewDef extract_view_def(const std::string& name, const PlanPtr& plan,
                         double stored_blocks) {
  ViewDef def;
  def.name = name;
  def.output = plan->output_schema();
  def.stored_blocks = stored_blocks;

  const std::size_t n_aggs = count_aggregates(plan);
  PlanPtr spine = plan;
  if (n_aggs > 1) {
    def.unmatchable_reason = "multiple aggregates";
    return def;
  }
  if (n_aggs == 1) {
    // Peel the post-aggregation spine: projects only reorder/drop stored
    // columns (captured by def.output); selects over grouping columns
    // commute with the gamma and fold into the base-space conjuncts.
    std::vector<ExprPtr> post_selects;
    while (spine->kind() != OpKind::kAggregate) {
      if (spine->kind() == OpKind::kProject) {
        spine = spine->children()[0];
        continue;
      }
      if (spine->kind() == OpKind::kSelect) {
        const auto& sel = static_cast<const SelectOp&>(*spine);
        for (const ExprPtr& c : conjuncts_of(sel.predicate())) {
          post_selects.push_back(c);
        }
        spine = spine->children()[0];
        continue;
      }
      def.unmatchable_reason = "aggregate below a " +
                               to_string(spine->kind()) + " operator";
      return def;
    }
    const auto& agg = static_cast<const AggregateOp&>(*spine);
    def.has_aggregation = true;
    def.group_by = agg.group_by();
    def.aggregates = agg.aggregates();
    for (const ExprPtr& c : post_selects) {
      if (!over_group_columns(c, def.group_by)) {
        // HAVING-style filter over an aggregate output: not expressible
        // in the base space, so the view cannot be summarized.
        def.unmatchable_reason = "selection over aggregate output";
        return def;
      }
      def.conjuncts.push_back(c);
    }
    spine = spine->children()[0];
  }
  std::string reason;
  if (!walk_spj(spine, def, reason)) {
    def.has_aggregation = false;
    def.unmatchable_reason = reason;
    return def;
  }
  def.matchable = true;
  return def;
}

Schema joint_base_schema(const Catalog& catalog,
                         const std::set<std::string>& relations) {
  Schema joint;
  for (const std::string& r : relations) {
    // make_scan qualifies attribute sources (catalog schemas leave them
    // empty), so same-named columns of different relations stay distinct.
    joint = Schema::concat(joint, make_scan(catalog, r)->output_schema());
  }
  return joint;
}

std::optional<ViewMatch> match_query_to_view(const QuerySpec& query,
                                             const ViewDef& view,
                                             const Catalog& catalog,
                                             std::string* why) {
  const auto refuse = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return std::nullopt;
  };

  if (!view.matchable) return refuse("view: " + view.unmatchable_reason);
  const std::set<std::string> query_rels(query.relations().begin(),
                                         query.relations().end());
  if (query_rels != view.relations) return refuse("relation sets differ");
  if (query.has_aggregation() != view.has_aggregation &&
      view.has_aggregation) {
    return refuse("SPJ query over an aggregate view");
  }

  const Schema joint = joint_base_schema(catalog, view.relations);
  std::vector<ExprPtr> query_conjuncts;
  for (const JoinPredicate& j : query.joins()) {
    query_conjuncts.push_back(j.expr());
  }
  for (const ExprPtr& s : query.selections()) query_conjuncts.push_back(s);
  ExprPtr query_pred = conj(std::move(query_conjuncts));
  ExprPtr view_pred = conj(std::vector<ExprPtr>(view.conjuncts));

  // Containment: every row the query wants satisfies the view predicate,
  // so it survived into the stored view.
  if (!implies(query_pred, view_pred, joint)) {
    return refuse("containment not proved");
  }

  // Residual: the query conjuncts the view predicate does not already
  // guarantee. sigma(residual) on the stored rows recovers exactly
  // sigma(query_pred) of the joint space: residual AND view_pred entails
  // every query conjunct, and query_pred entails both parts.
  PredicateFacts view_facts(view_pred, joint);
  std::vector<ExprPtr> residual;
  if (query_pred != nullptr) {
    for (const ExprPtr& c : conjuncts_of(normalize(query_pred))) {
      if (!view_facts.entails(c)) residual.push_back(c);
    }
  }
  for (const ExprPtr& c : residual) {
    for (const std::string& name : columns_of(c)) {
      if (!view.output.contains(name)) {
        return refuse("residual column '" + name + "' not stored");
      }
    }
    if (view.has_aggregation && !over_group_columns(c, view.group_by)) {
      return refuse("residual finer than the view's grouping");
    }
  }

  ViewMatch match;
  match.view = view.name;
  match.stored_blocks = view.stored_blocks;
  match.query_pred = query_pred;
  match.view_pred = view_pred;
  match.joint = joint;
  match.residual = residual;

  PlanPtr plan = make_named_scan(view.name, view.output);
  if (!residual.empty()) {
    plan = make_select(plan, conj(std::vector<ExprPtr>(residual)));
  }

  if (!query.has_aggregation()) {
    // SPJ over SPJ: residual projection.
    if (!contains_all(view.output, query.projection())) {
      return refuse("projection column not stored");
    }
    plan = make_project(plan, query.projection());
  } else if (!view.has_aggregation) {
    // The query's own gamma over the view's raw rows.
    if (!contains_all(view.output, query.group_by())) {
      return refuse("grouping column not stored");
    }
    for (const AggSpec& a : query.aggregates()) {
      if (!a.column.empty() && !view.output.contains(a.column)) {
        return refuse("aggregate input '" + a.column + "' not stored");
      }
    }
    plan = make_aggregate(plan, query.group_by(),
                          std::vector<AggSpec>(query.aggregates()));
  } else {
    // Aggregate over aggregate.
    if (!contains_all(view.output, query.group_by())) {
      return refuse("grouping column not stored");
    }
    const std::set<std::string> qg(query.group_by().begin(),
                                   query.group_by().end());
    const std::set<std::string> vg(view.group_by.begin(),
                                   view.group_by.end());
    if (!std::includes(vg.begin(), vg.end(), qg.begin(), qg.end())) {
      return refuse("query grouping coarser than stored along no axis");
    }
    if (qg == vg) {
      // Pass-through: the stored rows are the query's groups; project the
      // stored aggregate columns into the query's output order.
      std::vector<std::string> out_cols(query.group_by());
      for (const AggSpec& a : query.aggregates()) {
        const AggSpec* have = stored_aggregate(view, a);
        if (have == nullptr) {
          return refuse("aggregate " + a.to_string() + " not stored");
        }
        out_cols.push_back(have->alias);
      }
      plan = make_project(plan, out_cols);
    } else {
      // Rollup from the finer grouping: SUM of sums, MIN of mins, MAX of
      // maxes, SUM_INT of counts. AVG cannot be re-derived (no arithmetic
      // expressions in the algebra).
      std::vector<AggSpec> rolled;
      for (const AggSpec& a : query.aggregates()) {
        AggFn roll_fn = a.fn;
        AggFn stored_fn = a.fn;
        switch (a.fn) {
          case AggFn::kCount:
            roll_fn = AggFn::kSumInt;
            break;
          case AggFn::kSum:
          case AggFn::kMin:
          case AggFn::kMax:
          case AggFn::kSumInt:
            break;
          case AggFn::kAvg:
            return refuse("avg cannot roll up from a finer grouping");
        }
        AggSpec probe = a;
        probe.fn = stored_fn;
        const AggSpec* have = stored_aggregate(view, probe);
        if (have == nullptr) {
          return refuse("aggregate " + a.to_string() + " not stored");
        }
        rolled.push_back(AggSpec{roll_fn, have->alias, a.alias});
      }
      plan = make_aggregate(plan, query.group_by(), std::move(rolled));
    }
  }

  match.plan = simplify_plan_predicates(plan);
  return match;
}

std::string refusal_code(const std::string& reason) {
  const auto starts = [&](std::string_view prefix) {
    return reason.rfind(prefix, 0) == 0;
  };
  if (starts("relation sets differ")) return "relations";
  if (starts("containment not proved")) return "containment";
  if (starts("residual column")) return "residual-column";
  if (starts("residual finer")) return "residual-grouping";
  if (starts("projection column not stored")) return "projection";
  if (starts("grouping column not stored")) return "grouping";
  if (starts("aggregate input")) return "aggregate-input";
  if (starts("aggregate ")) return "aggregate";
  if (starts("SPJ query over an aggregate view")) return "spj-over-aggregate";
  if (starts("avg cannot roll up")) return "avg-rollup";
  if (starts("query grouping coarser")) return "grouping-axis";
  if (starts("view: ")) return "unmatchable";
  return "other";
}

std::optional<ViewMatch> best_view_match(const QuerySpec& query,
                                         const std::vector<ViewDef>& views,
                                         const Catalog& catalog,
                                         std::vector<ViewRefusal>* refusals) {
  std::optional<ViewMatch> best;
  for (const ViewDef& v : views) {
    std::string why;
    auto m = match_query_to_view(query, v, catalog,
                                 refusals != nullptr ? &why : nullptr);
    if (!m.has_value()) {
      if (refusals != nullptr) refusals->push_back({v.name, std::move(why)});
      continue;
    }
    if (!best.has_value() || m->stored_blocks < best->stored_blocks ||
        (m->stored_blocks == best->stored_blocks && m->view < best->view)) {
      best = std::move(m);
    }
  }
  return best;
}

}  // namespace mvd
