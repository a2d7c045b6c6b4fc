// View subsumption matching and compensation-plan synthesis — the
// rewriting core of mvserve (src/serve).
//
// A deployed materialized view is summarized as a ViewDef: the base
// relations it joins, every join/selection conjunct expressed over the
// joint base space (the cross product of those relations), its stored
// output schema, and its aggregation shape. An ad-hoc QuerySpec matches a
// view when
//   * the relation sets are equal (no lossless-join reasoning — an extra
//     or missing join refuses),
//   * the query predicate implies the view predicate (the src/check
//     interval-domain oracle: every row the query wants, the view kept),
//   * the aggregation shapes are compatible (see below), and
//   * every column the compensation needs survived the view's projection.
// The compensation plan is a scan of the stored view, a residual
// selection (the query conjuncts not already entailed by the view's
// predicate), and a residual projection/aggregation. It is an ordinary
// logical plan: both engines run it (same bag; the vectorized engine
// bit-identically at any thread count).
//
// Aggregation compatibility, where G() is the grouping column set:
//   query SPJ  over SPJ view  — residual sigma + projection.
//   query agg  over SPJ view  — residual sigma + the query's own gamma.
//   query agg  over agg view  — pass-through when G(q) == G(v) and every
//     query aggregate is stored by the view (projection of stored
//     columns), else rollup when G(q) is a subset of G(v): SUM re-sums
//     stored sums, MIN/MAX re-extremize, COUNT sums stored counts through
//     AggFn::kSumInt (type-preserving). AVG is only served pass-through —
//     re-deriving it from a finer grouping needs arithmetic the algebra
//     does not have. Residual conjuncts over an aggregate view must
//     reference grouping columns only (they filter whole groups; anything
//     finer no longer exists in the stored rows).
//   query SPJ  over agg view  — refused (raw rows are gone).
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/query_spec.hpp"
#include "src/catalog/catalog.hpp"

namespace mvd {

/// A deployed view's matching summary, extracted from its MVPP node's
/// annotated base-relation plan (extract_view_def).
struct ViewDef {
  /// Stored table name (the MVPP node name).
  std::string name;
  /// Base relations beneath the view.
  std::set<std::string> relations;
  /// Every join + selection conjunct, over the joint base space.
  std::vector<ExprPtr> conjuncts;
  /// The stored table's schema (attribute sources identify base columns).
  Schema output;

  bool has_aggregation = false;
  std::vector<std::string> group_by;  // qualified
  std::vector<AggSpec> aggregates;

  /// Stored size in blocks, for cheapest-view ranking (actual deployed
  /// size when known, the MVPP estimate otherwise).
  double stored_blocks = 0;

  /// False when the plan shape is outside the matchable fragment
  /// (interior aggregates, HAVING-style selects over aggregate outputs,
  /// joins above an aggregate); such views are deployed and refreshed
  /// normally but never serve ad-hoc queries.
  bool matchable = false;
  std::string unmatchable_reason;
};

/// Summarize a view's base-relation plan (an MVPP node's annotated expr)
/// for matching. `stored_blocks` seeds the ranking field.
ViewDef extract_view_def(const std::string& name, const PlanPtr& plan,
                         double stored_blocks);

/// A successful rewrite: the compensation plan plus the evidence that
/// mvlint's serve/rewrite-consistent rule re-checks.
struct ViewMatch {
  std::string view;
  PlanPtr plan;  // scan(view) -> residual sigma -> residual pi/gamma
  double stored_blocks = 0;
  /// Conjunction of the query's join + selection conjuncts.
  ExprPtr query_pred;
  /// Conjunction of the view's conjuncts.
  ExprPtr view_pred;
  /// The joint base schema both predicates are read over.
  Schema joint;
  /// Query conjuncts not entailed by the view predicate (applied by the
  /// compensation sigma).
  std::vector<ExprPtr> residual;
};

/// The joint base schema of a relation set: catalog schemas concatenated
/// in sorted name order (column references are qualified, so any fixed
/// order works; sorted keeps it deterministic).
Schema joint_base_schema(const Catalog& catalog,
                         const std::set<std::string>& relations);

/// Try to answer `query` from `view`. Returns the compensation on
/// success; on refusal, `why` (when given) receives a short reason.
std::optional<ViewMatch> match_query_to_view(const QuerySpec& query,
                                             const ViewDef& view,
                                             const Catalog& catalog,
                                             std::string* why = nullptr);

/// Bucket a match_query_to_view refusal reason into a stable short code
/// for tallying ("relations", "containment", "projection", ...;
/// "other" for text no bucket claims). The free-text reasons embed
/// column/aggregate names, so aggregation has to go through these codes.
std::string refusal_code(const std::string& reason);

/// One view's refusal to answer a query, with match_query_to_view's
/// reason.
struct ViewRefusal {
  std::string view;
  std::string reason;
};

/// Match against every view and keep the cheapest (fewest stored blocks,
/// name as the tie-break). Views are pre-filtered by the caller (mvserve
/// passes only VALID ones). When `refusals` is given, every view that
/// refused is appended to it in `views` order.
std::optional<ViewMatch> best_view_match(
    const QuerySpec& query, const std::vector<ViewDef>& views,
    const Catalog& catalog, std::vector<ViewRefusal>* refusals = nullptr);

}  // namespace mvd
