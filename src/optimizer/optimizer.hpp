// Single-query optimization: choosing a join order and placing selections
// and projections.
//
// The paper's Figure 4 needs, per query, an *individual optimal plan* whose
// select/project operations can be pushed up (leaving a pure join pattern
// over base relations) and later pushed back down across the merged MVPP.
// This module provides both directions:
//   - optimize(spec): best left-deep join order by dynamic programming over
//     connected subsets, with selections and projections pushed down — the
//     plan of Figure 5 after re-pushdown (Figure 8 shape for one query).
//   - build_plan(spec, order, placement): deterministic plan construction
//     for a given relation order with selects/projects either pushed down
//     or held above the joins (the Figure 5 "pushed-up" shape).
#pragma once

#include <vector>

#include "src/algebra/logical_plan.hpp"
#include "src/algebra/query_spec.hpp"
#include "src/cost/cost_model.hpp"

namespace mvd {

/// Where selections/projections are placed when building a plan.
struct PlanPlacement {
  bool push_selections_down = true;
  bool push_projections_down = true;
};

struct OptimizerConfig {
  /// Consider only join-connected expansions during DP; when a query's join
  /// graph is disconnected, cross joins are appended between components.
  bool connected_subsets_only = true;
};

/// A join order and the full_cost of its left-deep join pattern: each
/// relation's unit with selections and projections pushed down, join
/// conjuncts applied as soon as both sides are present, nothing above the
/// last join. This is the quantity the join-order search minimizes.
struct JoinOrder {
  std::vector<std::string> relations;
  double cost = 0;
};

class Optimizer {
 public:
  Optimizer(const CostModel& cost_model, OptimizerConfig config = {});

  /// The scan (+ pushed selections/projections) leaf plan for `relation`.
  PlanPtr relation_unit(const QuerySpec& spec, const std::string& relation,
                        const PlanPlacement& placement) const;

  /// Deterministic plan for a given relation order (left-deep, join
  /// conjuncts applied as soon as both sides are present, multi-relation
  /// selections above the joins, final projection on top).
  PlanPtr build_plan(const QuerySpec& spec,
                     const std::vector<std::string>& order,
                     const PlanPlacement& placement) const;

  /// Best left-deep join order by subset DP under full_cost(). Each
  /// relation's unit is built and priced once, and each prefix the search
  /// extends is joined and estimated once, from its own prefix's estimate.
  /// Ties keep the first order found (masks ascending, relations in FROM
  /// order). A disconnected join graph gets cross joins.
  JoinOrder best_join_order(const QuerySpec& spec) const;

  /// best_join_order(spec).relations.
  std::vector<std::string> optimal_join_order(const QuerySpec& spec) const;

  /// optimal_join_order + optimize(spec, order).
  PlanPtr optimize(const QuerySpec& spec) const;

  /// build_plan over `order` with everything pushed down, predicates
  /// simplified: the individual optimal plan once `order` is known.
  PlanPtr optimize(const QuerySpec& spec,
                   const std::vector<std::string>& order) const;

  /// The same optimal order built with selections/projections held above
  /// the join pattern — the paper's step-2 "pushed-up" individual plan.
  PlanPtr optimize_pushed_up(const QuerySpec& spec) const;

  const CostModel& cost_model() const { return *cost_model_; }

 private:
  const CostModel* cost_model_;
  OptimizerConfig config_;
};

/// Predicate simplification over a built plan, using the mvcheck
/// implication oracle (src/check/implication):
///   - conjuncts are constant-folded; literal-true conjuncts drop;
///   - a select conjunct entailed by the select chain directly below it
///     drops (it can never filter anything there);
///   - a select whose every conjunct drops is removed entirely;
///   - a statically-false select (or join) keeps a single literal-false
///     predicate, so no per-row comparisons run at all.
/// Shared DAG nodes stay shared; an unchanged subtree returns the same
/// PlanPtr (callers can detect "no change" by pointer equality).
/// optimize() applies this to its output.
PlanPtr simplify_plan_predicates(const PlanPtr& plan);

}  // namespace mvd
