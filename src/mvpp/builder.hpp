// MVPP generation — the paper's Figure 4 algorithm.
//
// For each query we take its individual optimal plan (join order from the
// optimizer), conceptually push its selections and projections up so only
// the join pattern over base relations remains (step 2), and merge the
// plans one at a time into the growing MVPP: existing join subtrees whose
// base-relation sets and join predicates match a subset of the incoming
// query are reused wholesale; the remaining relations are joined following
// the query's own order (steps 4.3.1–4.3.3). Afterwards, selections are
// pushed back down to the leaves as per-relation disjunctions and
// projections as unions including join attributes (steps 5–6, the
// Figure 7 → Figure 8 rewrite), with query-specific residual selections
// applied on each query's private path whenever the pushed-down
// disjunction is weaker than the query's own condition.
//
// Because the merge result depends on the order in which plans are
// incorporated, the algorithm produces k MVPPs for k queries by rotating
// the fq·Ca-descending list (step 4.5); choose_best_mvpp() runs a
// selection algorithm on each and keeps the cheapest. All k rotations
// merge the same k individual plans, so build_all_rotations() searches
// each query's join order once and every rotation (and the initial
// ordering) reads those orders.
#pragma once

#include <functional>

#include "src/algebra/query_spec.hpp"
#include "src/mvpp/graph.hpp"
#include "src/mvpp/selection.hpp"
#include "src/optimizer/optimizer.hpp"

namespace mvd {

struct MvppBuildResult {
  MvppGraph graph;
  /// Query names in the order they were merged.
  std::vector<std::string> merge_order;
};

class MvppBuilder {
 public:
  explicit MvppBuilder(const Optimizer& optimizer);

  /// Merge `queries` in positions `order` (a permutation of indices into
  /// `queries`). The result is annotated against the optimizer's cost
  /// model.
  MvppBuildResult build(const std::vector<QuerySpec>& queries,
                        const std::vector<std::size_t>& order) const;

  /// The descending fq·Ca ordering of step 3 (indices into `queries`).
  std::vector<std::size_t> initial_order(
      const std::vector<QuerySpec>& queries) const;

  /// All k rotations of the initial order (the paper's k candidate MVPPs).
  /// Rotations are built on `threads` workers (0 = auto, 1 = serial);
  /// each rotation is an independent merge, so the results are identical
  /// to the serial order.
  std::vector<MvppBuildResult> build_all_rotations(
      const std::vector<QuerySpec>& queries, std::size_t threads = 0) const;

  const Optimizer& optimizer() const { return *optimizer_; }

 private:
  using JoinOrders = std::vector<std::vector<std::string>>;

  /// Each query's optimal join order (one search per query).
  JoinOrders join_orders(const std::vector<QuerySpec>& queries) const;
  std::vector<std::size_t> initial_order(const std::vector<QuerySpec>& queries,
                                         const JoinOrders& join_orders) const;
  MvppBuildResult build(const std::vector<QuerySpec>& queries,
                        const std::vector<std::size_t>& order,
                        const JoinOrders& join_orders) const;

  const Optimizer* optimizer_;
};

/// Which MVPP wins once views are selected on each.
struct MvppChoice {
  std::size_t index = 0;        // into the candidates vector
  SelectionResult selection;    // of the winning MVPP
};

using SelectionAlgorithm =
    std::function<SelectionResult(const MvppEvaluator&)>;

/// Run `algorithm` (default: the Figure 9 heuristic) over every candidate
/// and return the index/selection of the lowest total cost.
MvppChoice choose_best_mvpp(
    const std::vector<MvppBuildResult>& candidates,
    MaintenancePolicy policy = {},
    const SelectionAlgorithm& algorithm = {});

}  // namespace mvd
