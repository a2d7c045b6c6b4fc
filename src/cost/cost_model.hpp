// Block-access cost model (the paper's Section 4.1 cost functions).
//
// All costs are in units of one disk-block access, matching the paper:
// selection and projection cost a scan of their input (a pure equality
// selection may stop after half the blocks, the paper's 0.25k for
// city='LA' over 0.5k-block Division); a join is a block nested-loop,
// b_outer + b_outer * b_inner, with the smaller input as the outer.
// An operator's op_cost covers producing its result from *direct* inputs;
// full_cost sums op_costs over the subtree — the paper's Ca(v).
//
// Cardinality estimation: selectivities come from per-column distinct
// counts (equality), min/max interpolation (ranges) or documented
// defaults; join sizes come from 1/max(distinct) per equi-conjunct, unless
// the catalog pins the join size of the node's base-relation set (Table 1
// overrides), in which case the pinned size is scaled by the selection
// factor already applied in the subtree.
#pragma once

#include <map>
#include <set>
#include <span>
#include <string>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/algebra/query_spec.hpp"
#include "src/catalog/catalog.hpp"

namespace mvd {

struct CostModelConfig {
  /// Disk block capacity in bytes; used to derive blocking factors of
  /// intermediate results from (implied) tuple widths.
  double block_size_bytes = 4096;

  /// Selectivity of an equality predicate when the column has no distinct
  /// count in the catalog.
  double default_eq_selectivity = 0.1;

  /// Selectivity of a range predicate when min/max are unavailable.
  double default_range_selectivity = 1.0 / 3.0;

  /// When true, a selection whose predicate is a conjunction of equality
  /// comparisons is costed at half a scan (early-termination assumption;
  /// the paper uses it for tmp1). Range selections always pay a full scan.
  bool equality_select_half_scan = true;

  /// Honor Catalog join-size overrides (Table 1 rows for joins).
  bool use_join_overrides = true;

  /// Assumed byte width of each value type, for intermediate blocking
  /// factors. Base relations with explicit block counts imply their own
  /// widths, which propagate upward.
  double width_int64 = 8;
  double width_double = 8;
  double width_string = 24;
  double width_bool = 1;
  double width_date = 8;

  double type_width(ValueType t) const;
};

/// Estimated size and statistics of one plan node's result.
struct NodeEstimate {
  double rows = 0;
  double blocks = 0;
  /// Implied tuple width in bytes (drives the blocking factor of results
  /// built on top of this node).
  double width = 0;
  /// Product of all selection selectivities applied in the subtree;
  /// scales pinned join sizes.
  double selection_factor = 1.0;
  /// Base relations joined beneath this node.
  std::set<std::string> bases;
  /// Surviving distinct-value estimates, keyed by qualified column name.
  std::map<std::string, double> distinct;
  /// Known numeric [min, max] per qualified column (drives range
  /// selectivity interpolation).
  std::map<std::string, std::pair<double, double>> ranges;

  /// Distinct count of `column`, clamped to the current row count;
  /// `fallback` when untracked.
  double distinct_of(const std::string& column, double fallback) const;
};

class CostModel {
 public:
  CostModel(const Catalog& catalog, CostModelConfig config = {});

  const Catalog& catalog() const { return *catalog_; }
  const CostModelConfig& config() const { return config_; }

  /// Estimated result size/stats of `plan`, re-derived from its scans:
  /// the node estimate below applied to every node of the tree. This is
  /// the reference that stored estimates are checked against (mvlint's
  /// annotation/estimate-consistent rule).
  NodeEstimate estimate(const PlanPtr& plan) const;

  /// Estimate of the node `plan` from its direct children's estimates:
  /// `inputs[i]` estimates plan.children()[i] (no inputs for a scan).
  /// Callers that keep their children's estimates (MvppGraph::annotate,
  /// the optimizer's join-order search) estimate each node once this way.
  NodeEstimate estimate(const LogicalOp& plan,
                        std::span<const NodeEstimate* const> inputs) const;

  /// Cost of producing `plan`'s result from its direct inputs (inputs
  /// assumed available as scannable relations; their production is not
  /// included). A scan's op_cost is 0 — reading a base relation is charged
  /// to the operator consuming it.
  double op_cost(const PlanPtr& plan) const;

  /// op_cost of the node `plan` from its children's estimates (as above).
  double op_cost(const LogicalOp& plan,
                 std::span<const NodeEstimate* const> inputs) const;

  /// Total cost of computing `plan` from base relations: sum of op_cost
  /// over the subtree. For a bare scan this is the relation's blocks.
  /// This is the paper's Ca(v). One bottom-up pass estimates every node
  /// once; `out`, when given, receives the estimate of `plan` itself.
  double full_cost(const PlanPtr& plan, NodeEstimate* out = nullptr) const;

  /// Selectivity in [0, 1] of `predicate` against rows described by
  /// `input`.
  double selectivity(const ExprPtr& predicate, const NodeEstimate& input) const;

  // --- kind-specific helpers shared with the MVPP evaluator, which works
  // on estimates rather than plan trees. ---

  /// Selection/projection over an input of `input_blocks`.
  double scan_op_cost(double input_blocks, bool pure_equality) const;

  /// Block nested-loop join; smaller side used as the outer.
  double join_op_cost(double left_blocks, double right_blocks) const;

  /// Blocks occupied by `rows` tuples of `width` bytes.
  double blocks_for(double rows, double width) const;

 private:
  NodeEstimate estimate_scan(const ScanOp& scan) const;
  NodeEstimate estimate_select(const SelectOp& op, NodeEstimate est) const;
  NodeEstimate estimate_project(const ProjectOp& op, NodeEstimate est) const;
  NodeEstimate estimate_join(const JoinOp& op, const NodeEstimate& left,
                             const NodeEstimate& right) const;
  NodeEstimate estimate_aggregate(const AggregateOp& op,
                                  const NodeEstimate& in) const;

  double comparison_selectivity(const ComparisonExpr& cmp,
                                const NodeEstimate& input) const;

  const Catalog* catalog_;
  CostModelConfig config_;
};

/// True when `predicate` is an equality comparison or a conjunction of
/// equality comparisons (the early-termination case for selections).
bool is_pure_equality(const ExprPtr& predicate);

}  // namespace mvd
