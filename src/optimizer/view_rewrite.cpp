#include "src/optimizer/view_rewrite.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "src/check/implication.hpp"
#include "src/common/assert.hpp"
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

// ---- Serving by template ---------------------------------------------------

namespace {

bool is_nan(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.as_double());
}

/// The literal slots `e` holds.
std::size_t count_literals(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kColumn:
      return 0;
    case ExprKind::kLiteral:
      return 1;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*e);
      return count_literals(c.lhs()) + count_literals(c.rhs());
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::size_t n = 0;
      for (const ExprPtr& o : static_cast<const BoolExpr&>(*e).operands()) {
        n += count_literals(o);
      }
      return n;
    }
    case ExprKind::kNot:
      return count_literals(static_cast<const NotExpr&>(*e).operand());
  }
  return 0;
}

/// A top-level `column op literal` conjunct (normalized: column first),
/// with the column's type in the joint schema.
struct ColumnLiteral {
  std::string column;
  CompareOp op;
  Value value;
  ValueType column_type;
};

std::optional<ColumnLiteral> column_literal(const ExprPtr& c,
                                            const Schema& joint) {
  if (c->kind() != ExprKind::kComparison) return std::nullopt;
  const auto& cmp = static_cast<const ComparisonExpr&>(*c);
  if (cmp.lhs()->kind() != ExprKind::kColumn ||
      cmp.rhs()->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const std::string& column = static_cast<const ColumnExpr&>(*cmp.lhs()).name();
  const std::optional<std::size_t> i = joint.find(column);
  if (!i.has_value()) return std::nullopt;
  return ColumnLiteral{column, cmp.op(),
                       static_cast<const LiteralExpr&>(*cmp.rhs()).value(),
                       joint.at(*i).type};
}

/// Widening (b) applies: a numeric range bound with a non-NaN literal.
bool one_sided(const ColumnLiteral& b) {
  return b.op != CompareOp::kEq && b.op != CompareOp::kNe &&
         is_numeric(b.column_type) && is_numeric(b.value.type()) &&
         !is_nan(b.value);
}

/// The literals on one side of the anchor: `up` admits it and everything
/// above. Tighter is up for > and >=, down for < and <=.
ValueInterval side(const ColumnLiteral& b, bool tighter) {
  const bool up = tighter == (b.op == CompareOp::kGt || b.op == CompareOp::kGe);
  const double v = b.value.as_double();
  return up ? ValueInterval::at_least(v, false)
            : ValueInterval::at_most(v, false);
}

/// Every finite number: where widening (c) holds for a numeric slot
/// (`column <= +inf` would be entailed, and NaN is ingested as nothing).
ValueInterval finite() {
  ValueInterval iv;
  iv.lo_open = true;
  iv.hi_open = true;
  return iv;
}

/// Widening (c) applies to conjunct `b` against a view's facts: the
/// conjunct stays residual for every literal in finite() (numeric) or of
/// its type (string).
bool always_residual(const ColumnLiteral& b, const PredicateFacts& facts) {
  if (facts.contradictory() || facts.constrains(b.column)) return false;
  if (b.op == CompareOp::kNe) return false;
  if (is_numeric(b.column_type) && is_numeric(b.value.type())) {
    return std::isfinite(b.value.as_double());
  }
  return b.op == CompareOp::kEq && b.column_type == ValueType::kString &&
         b.value.type() == ValueType::kString;
}

/// Where match_query_to_view refused: before it reads the predicates,
/// at containment, at the residual checks, or at the output checks
/// after them (which read no literal). An unknown reason counts as a
/// residual refusal, the most conservative stage.
enum class RefusalStage { kShape, kContainment, kResidual, kOutput };

RefusalStage refusal_stage(const std::string& reason) {
  const std::string code = refusal_code(reason);
  if (code == "unmatchable" || code == "relations" ||
      code == "spj-over-aggregate") {
    return RefusalStage::kShape;
  }
  if (code == "containment") return RefusalStage::kContainment;
  if (code == "residual-column" || code == "residual-grouping" ||
      code == "other") {
    return RefusalStage::kResidual;
  }
  return RefusalStage::kOutput;
}

/// Widening (a): the slot-bearing conjuncts freed for containment, grown
/// in template order; a candidate joins only if implies() still proves
/// `view_pred` with it and every conjunct freed before it removed.
std::vector<bool> freed_for_containment(const std::vector<ExprPtr>& conjuncts,
                                        const std::vector<std::size_t>& first,
                                        const ExprPtr& view_pred,
                                        const Schema& joint) {
  std::vector<bool> freed(conjuncts.size(), false);
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    if (first[i] == first[i + 1]) continue;
    freed[i] = true;
    std::vector<ExprPtr> kept;
    for (std::size_t j = 0; j < conjuncts.size(); ++j) {
      if (!freed[j]) kept.push_back(conjuncts[j]);
    }
    if (!implies(conj(std::move(kept)), view_pred, joint)) freed[i] = false;
  }
  return freed;
}

/// `top` (a projection or aggregation) over a new input.
PlanPtr with_input(const PlanPtr& top, PlanPtr input) {
  if (top->kind() == OpKind::kProject) {
    return make_project(std::move(input),
                        static_cast<const ProjectOp&>(*top).columns());
  }
  MVD_ASSERT(top->kind() == OpKind::kAggregate);
  const auto& agg = static_cast<const AggregateOp&>(*top);
  return make_aggregate(std::move(input), agg.group_by(), agg.aggregates());
}

}  // namespace

bool LiteralGuard::admits(const Value& v) const {
  if (v.type() != anchor.type()) return false;
  if (pinned) return v.identical(anchor);
  if (!is_numeric(v.type())) return true;
  const double d = v.as_double();
  return !std::isnan(d) && range.contains_point(d);
}

bool TemplateMatch::admits(const QuerySpec& query) const {
  const std::vector<Value>& slots = query.template_slots();
  if (slots.size() != guards.size()) return false;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!guards[i].admits(slots[i])) return false;
  }
  return true;
}

PlanPtr TemplateMatch::plan(const QuerySpec& query) const {
  MVD_ASSERT(!view.empty());
  PlanPtr plan = scan;
  if (!residual.empty()) {
    std::vector<ExprPtr> kept;
    for (const std::size_t i : residual) {
      kept.push_back(query.canonical_conjuncts()[i]);
    }
    plan = make_select(std::move(plan), conj(std::move(kept)));
  }
  return with_input(output, std::move(plan));
}

std::optional<ViewMatch> match_template(const QuerySpec& query,
                                        const std::vector<ViewDef>& views,
                                        const Catalog& catalog,
                                        TemplateMatch& out) {
  out = TemplateMatch{};
  std::optional<ViewMatch> best =
      best_view_match(query, views, catalog, &out.refusals);

  // first[i] .. first[i + 1]: the slots of conjunct i.
  const std::vector<ExprPtr>& conjuncts = query.canonical_conjuncts();
  std::vector<std::size_t> first{0};
  for (const ExprPtr& c : conjuncts) {
    first.push_back(first.back() + count_literals(c));
  }
  MVD_ASSERT(first.back() == query.template_slots().size());
  for (const Value& v : query.template_slots()) {
    out.guards.push_back(LiteralGuard{v, is_nan(v), ValueInterval()});
  }
  const auto pin = [&](std::size_t i) {
    for (std::size_t s = first[i]; s < first[i + 1]; ++s) {
      out.guards[s].pinned = true;
    }
  };
  const auto narrow = [&](std::size_t i, const ValueInterval& iv) {
    for (std::size_t s = first[i]; s < first[i + 1]; ++s) {
      out.guards[s].range = out.guards[s].range.intersect(iv);
    }
  };

  const Schema joint = joint_base_schema(
      catalog, std::set<std::string>(query.relations().begin(),
                                     query.relations().end()));
  std::vector<std::optional<ColumnLiteral>> bounds;
  for (const ExprPtr& c : conjuncts) bounds.push_back(column_literal(c, joint));

  for (const ViewDef& view : views) {
    const auto refused =
        std::find_if(out.refusals.begin(), out.refusals.end(),
                     [&](const ViewRefusal& r) { return r.view == view.name; });
    const RefusalStage stage = refused == out.refusals.end()
                                   ? RefusalStage::kOutput
                                   : refusal_stage(refused->reason);
    if (stage == RefusalStage::kShape) continue;
    if (stage != RefusalStage::kOutput) {
      for (std::size_t i = 0; i < conjuncts.size(); ++i) {
        const auto& b = bounds[i];
        if (stage == RefusalStage::kContainment && b && one_sided(*b)) {
          narrow(i, side(*b, /*tighter=*/false));
        } else {
          pin(i);
        }
      }
      continue;
    }

    // The view passed containment and the residual checks: keep the
    // proof, and each conjunct's residual status, for every admitted
    // request.
    const ExprPtr view_pred = conj(std::vector<ExprPtr>(view.conjuncts));
    const PredicateFacts facts(view_pred, joint);
    const std::vector<bool> freed =
        freed_for_containment(conjuncts, first, view_pred, joint);
    for (std::size_t i = 0; i < conjuncts.size(); ++i) {
      const auto& b = bounds[i];
      if (!freed[i]) {
        if (b && one_sided(*b)) {
          narrow(i, side(*b, /*tighter=*/true));
        } else {
          pin(i);
        }
      }
      if (b && always_residual(*b, facts)) {
        if (is_numeric(b->value.type())) narrow(i, finite());
      } else {
        pin(i);
      }
    }

    if (best.has_value() && view.name == best->view) {
      out.view = view.name;
      out.scan = make_named_scan(view.name, view.output);
      out.output = best->plan;
      std::vector<ExprPtr> kept;
      for (std::size_t i = 0; i < conjuncts.size(); ++i) {
        if (!facts.entails(conjuncts[i])) out.residual.push_back(i);
        if (!freed[i]) kept.push_back(conjuncts[i]);
      }
      out.evidence_pred = conj(std::move(kept));
    }
  }
  return best;
}

}  // namespace mvd
