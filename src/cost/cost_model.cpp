#include "src/cost/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"

namespace mvd {

double CostModelConfig::type_width(ValueType t) const {
  switch (t) {
    case ValueType::kInt64: return width_int64;
    case ValueType::kDouble: return width_double;
    case ValueType::kString: return width_string;
    case ValueType::kBool: return width_bool;
    case ValueType::kDate: return width_date;
  }
  MVD_ASSERT(false);
  return 8;
}

double NodeEstimate::distinct_of(const std::string& column,
                                 double fallback) const {
  auto it = distinct.find(column);
  const double d = it == distinct.end() ? fallback : it->second;
  return std::max(1.0, std::min(d, std::max(rows, 1.0)));
}

CostModel::CostModel(const Catalog& catalog, CostModelConfig config)
    : catalog_(&catalog), config_(config) {
  if (!(config_.block_size_bytes > 0)) {
    throw PlanError("block_size_bytes must be positive");
  }
}

bool is_pure_equality(const ExprPtr& predicate) {
  if (predicate == nullptr) return false;
  switch (predicate->kind()) {
    case ExprKind::kComparison:
      return static_cast<const ComparisonExpr&>(*predicate).op() ==
             CompareOp::kEq;
    case ExprKind::kAnd: {
      const auto& b = static_cast<const BoolExpr&>(*predicate);
      return std::all_of(b.operands().begin(), b.operands().end(),
                         is_pure_equality);
    }
    default:
      return false;
  }
}

double CostModel::blocks_for(double rows, double width) const {
  if (rows <= 0) return 0;
  const double bf = std::max(1.0, std::floor(config_.block_size_bytes /
                                             std::max(width, 1.0)));
  return std::max(1.0, std::ceil(rows / bf));
}

double CostModel::scan_op_cost(double input_blocks, bool pure_equality) const {
  if (pure_equality && config_.equality_select_half_scan) {
    return input_blocks / 2.0;
  }
  return input_blocks;
}

double CostModel::join_op_cost(double left_blocks, double right_blocks) const {
  const double outer = std::min(left_blocks, right_blocks);
  const double inner = std::max(left_blocks, right_blocks);
  return outer + outer * inner;
}

NodeEstimate CostModel::estimate_scan(const ScanOp& scan) const {
  NodeEstimate est;
  const std::string& rel = scan.relation();
  if (!catalog_->has_relation(rel)) {
    // Named scans of non-catalog relations (materialized views) are
    // estimated by whoever created them; reaching here is a logic error.
    throw PlanError("cannot estimate scan of non-catalog relation '" + rel +
                    "'");
  }
  const RelationStats& stats = catalog_->stats(rel);
  est.rows = stats.rows;
  est.blocks = stats.blocks.has_value() ? *stats.blocks
                                        : catalog_->blocks_for_rows(stats.rows);
  est.bases.insert(rel);
  // Implied width: respect explicit block counts so that intermediate
  // results inherit realistic densities; otherwise sum the type widths.
  if (est.rows > 0 && est.blocks > 0 && stats.blocks.has_value()) {
    est.width = config_.block_size_bytes / (est.rows / est.blocks);
  } else {
    est.width = 0;
    for (const Attribute& a : scan.output_schema().attributes()) {
      est.width += config_.type_width(a.type);
    }
  }
  for (const Attribute& a : scan.output_schema().attributes()) {
    const ColumnStats* cs = stats.column(a.name);
    if (cs != nullptr && cs->distinct.has_value()) {
      est.distinct[a.qualified()] = *cs->distinct;
    } else {
      est.distinct[a.qualified()] = est.rows;  // assume near-unique
    }
    if (cs != nullptr && cs->min_value.has_value() &&
        cs->max_value.has_value()) {
      est.ranges[a.qualified()] = {*cs->min_value, *cs->max_value};
    }
  }
  return est;
}

double CostModel::comparison_selectivity(const ComparisonExpr& cmp,
                                         const NodeEstimate& input) const {
  const ExprPtr& lhs = cmp.lhs();
  const ExprPtr& rhs = cmp.rhs();

  // column vs column (same input — a theta-selection, not a join here).
  if (lhs->kind() == ExprKind::kColumn && rhs->kind() == ExprKind::kColumn) {
    const auto& lc = static_cast<const ColumnExpr&>(*lhs);
    const auto& rc = static_cast<const ColumnExpr&>(*rhs);
    if (cmp.op() == CompareOp::kEq) {
      const double dl = input.distinct_of(lc.name(), input.rows);
      const double dr = input.distinct_of(rc.name(), input.rows);
      return 1.0 / std::max({dl, dr, 1.0});
    }
    return config_.default_range_selectivity;
  }

  // Normalize to column-op-literal.
  const ColumnExpr* column = nullptr;
  const LiteralExpr* literal = nullptr;
  CompareOp op = cmp.op();
  if (lhs->kind() == ExprKind::kColumn && rhs->kind() == ExprKind::kLiteral) {
    column = &static_cast<const ColumnExpr&>(*lhs);
    literal = &static_cast<const LiteralExpr&>(*rhs);
  } else if (lhs->kind() == ExprKind::kLiteral &&
             rhs->kind() == ExprKind::kColumn) {
    column = &static_cast<const ColumnExpr&>(*rhs);
    literal = &static_cast<const LiteralExpr&>(*lhs);
    op = flip(op);
  } else {
    // literal-vs-literal or anything exotic: neutral default.
    return config_.default_range_selectivity;
  }

  switch (op) {
    case CompareOp::kEq: {
      const double d =
          input.distinct_of(column->name(), 1.0 / config_.default_eq_selectivity);
      return 1.0 / d;
    }
    case CompareOp::kNe: {
      const double d =
          input.distinct_of(column->name(), 1.0 / config_.default_eq_selectivity);
      return 1.0 - 1.0 / d;
    }
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      // Interpolate against the column's range when known and numeric.
      auto it = input.ranges.find(column->name());
      if (it != input.ranges.end() && is_numeric(literal->value().type())) {
        const auto [lo, hi] = it->second;
        if (hi > lo) {
          const double x =
              std::clamp(literal->value().as_double(), lo, hi);
          const double below = (x - lo) / (hi - lo);
          const double frac =
              (op == CompareOp::kLt || op == CompareOp::kLe) ? below
                                                             : 1.0 - below;
          return std::clamp(frac, 0.0, 1.0);
        }
      }
      return config_.default_range_selectivity;
    }
  }
  MVD_ASSERT(false);
  return 1.0;
}

double CostModel::selectivity(const ExprPtr& predicate,
                              const NodeEstimate& input) const {
  if (predicate == nullptr) return 1.0;
  switch (predicate->kind()) {
    case ExprKind::kLiteral: {
      const auto& l = static_cast<const LiteralExpr&>(*predicate);
      if (l.value().type() == ValueType::kBool) {
        return l.value().as_bool() ? 1.0 : 0.0;
      }
      return 1.0;
    }
    case ExprKind::kComparison:
      return comparison_selectivity(
          static_cast<const ComparisonExpr&>(*predicate), input);
    case ExprKind::kAnd: {
      double s = 1.0;
      for (const auto& op : static_cast<const BoolExpr&>(*predicate).operands()) {
        s *= selectivity(op, input);
      }
      return s;
    }
    case ExprKind::kOr: {
      double pass = 1.0;
      for (const auto& op : static_cast<const BoolExpr&>(*predicate).operands()) {
        pass *= 1.0 - selectivity(op, input);
      }
      return 1.0 - pass;
    }
    case ExprKind::kNot:
      return 1.0 - selectivity(
                       static_cast<const NotExpr&>(*predicate).operand(), input);
    case ExprKind::kColumn:
      return config_.default_range_selectivity;
  }
  MVD_ASSERT(false);
  return 1.0;
}

NodeEstimate CostModel::estimate_select(const SelectOp& op,
                                        NodeEstimate est) const {
  const double s = selectivity(op.predicate(), est);
  est.rows *= s;
  est.selection_factor *= s;
  est.blocks = blocks_for(est.rows, est.width);
  for (auto& [col, d] : est.distinct) {
    d = std::min(d, std::max(est.rows, 1.0));
  }
  // An equality pin (col = literal) collapses that column to one value.
  for (const ExprPtr& c : conjuncts_of(op.predicate())) {
    if (auto* ce = dynamic_cast<const ComparisonExpr*>(c.get());
        ce != nullptr && ce->op() == CompareOp::kEq) {
      const Expr* colside = nullptr;
      if (ce->lhs()->kind() == ExprKind::kColumn &&
          ce->rhs()->kind() == ExprKind::kLiteral) {
        colside = ce->lhs().get();
      } else if (ce->rhs()->kind() == ExprKind::kColumn &&
                 ce->lhs()->kind() == ExprKind::kLiteral) {
        colside = ce->rhs().get();
      }
      if (colside != nullptr) {
        est.distinct[static_cast<const ColumnExpr*>(colside)->name()] = 1.0;
      }
    }
  }
  return est;
}

NodeEstimate CostModel::estimate_project(const ProjectOp& op,
                                         NodeEstimate est) const {
  // Duplicate elimination is not modeled (SQL bag semantics); width shrinks.
  double width = 0;
  for (const Attribute& a : op.output_schema().attributes()) {
    width += config_.type_width(a.type);
  }
  // Keep the implied-width discipline: projection cannot widen tuples.
  est.width = std::min(est.width > 0 ? est.width : width, width);
  if (est.width <= 0) est.width = width;
  est.blocks = blocks_for(est.rows, est.width);
  std::map<std::string, double> kept;
  std::map<std::string, std::pair<double, double>> kept_ranges;
  for (const Attribute& a : op.output_schema().attributes()) {
    if (auto it = est.distinct.find(a.qualified()); it != est.distinct.end()) {
      kept.insert(*it);
    }
    if (auto it = est.ranges.find(a.qualified()); it != est.ranges.end()) {
      kept_ranges.insert(*it);
    }
  }
  est.distinct = std::move(kept);
  est.ranges = std::move(kept_ranges);
  return est;
}

NodeEstimate CostModel::estimate_join(const JoinOp& op,
                                      const NodeEstimate& left,
                                      const NodeEstimate& right) const {
  NodeEstimate est;
  est.bases = left.bases;
  est.bases.insert(right.bases.begin(), right.bases.end());
  est.selection_factor = left.selection_factor * right.selection_factor;
  est.width = left.width + right.width;
  est.distinct = left.distinct;
  est.distinct.insert(right.distinct.begin(), right.distinct.end());
  est.ranges = left.ranges;
  est.ranges.insert(right.ranges.begin(), right.ranges.end());

  // Pinned join size for this base-relation set (Table 1): scale by the
  // selections already applied underneath.
  const JoinSizeOverride* pin =
      config_.use_join_overrides ? catalog_->join_size_override(est.bases)
                                 : nullptr;
  if (pin != nullptr) {
    est.rows = pin->rows * est.selection_factor;
    if (pin->blocks.has_value() && pin->rows > 0) {
      est.blocks = std::max(
          est.rows > 0 ? 1.0 : 0.0,
          std::ceil(*pin->blocks * (est.rows / pin->rows)));
      if (est.rows > 0 && est.blocks > 0) {
        est.width = config_.block_size_bytes / (est.rows / est.blocks);
      }
    } else {
      est.blocks = blocks_for(est.rows, est.width);
    }
  } else {
    double rows = left.rows * right.rows;
    double cross_selectivity = 1.0;
    for (const ExprPtr& c : conjuncts_of(op.predicate())) {
      if (auto pair = as_column_equality(c); pair.has_value()) {
        const double dl = left.distinct.contains(pair->left)
                              ? left.distinct_of(pair->left, left.rows)
                              : right.distinct_of(pair->left, right.rows);
        const double dr = left.distinct.contains(pair->right)
                              ? left.distinct_of(pair->right, left.rows)
                              : right.distinct_of(pair->right, right.rows);
        cross_selectivity /= std::max({dl, dr, 1.0});
      } else {
        NodeEstimate joint;
        joint.rows = rows;
        joint.distinct = est.distinct;
        cross_selectivity *= selectivity(c, joint);
      }
    }
    est.rows = rows * cross_selectivity;
    est.blocks = blocks_for(est.rows, est.width);
  }

  for (auto& [col, d] : est.distinct) {
    d = std::min(d, std::max(est.rows, 1.0));
  }
  return est;
}

NodeEstimate CostModel::estimate_aggregate(const AggregateOp& op,
                                           const NodeEstimate& in) const {
  NodeEstimate est;
  est.bases = in.bases;
  est.selection_factor = in.selection_factor;
  // Output cardinality: the number of groups — the product of the group
  // columns' distinct counts, capped by the input size; one row for a
  // global aggregate.
  double groups = 1;
  for (const std::string& g : op.group_by()) {
    groups *= in.distinct_of(g, in.rows);
  }
  // A global aggregate always yields exactly one row (SQL semantics even
  // over an empty input).
  est.rows = op.group_by().empty() ? 1.0 : std::min(groups, in.rows);
  est.width = 0;
  for (const Attribute& a : op.output_schema().attributes()) {
    est.width += config_.type_width(a.type);
  }
  est.blocks = blocks_for(est.rows, est.width);
  for (const std::string& g : op.group_by()) {
    est.distinct[g] = std::min(in.distinct_of(g, in.rows),
                               std::max(est.rows, 1.0));
    if (auto it = in.ranges.find(g); it != in.ranges.end()) {
      est.ranges[g] = it->second;
    }
  }
  return est;
}

NodeEstimate CostModel::estimate(
    const LogicalOp& plan, std::span<const NodeEstimate* const> inputs) const {
  MVD_ASSERT(inputs.size() == plan.children().size());
  switch (plan.kind()) {
    case OpKind::kScan:
      return estimate_scan(static_cast<const ScanOp&>(plan));
    case OpKind::kSelect:
      return estimate_select(static_cast<const SelectOp&>(plan), *inputs[0]);
    case OpKind::kProject:
      return estimate_project(static_cast<const ProjectOp&>(plan),
                              *inputs[0]);
    case OpKind::kJoin:
      return estimate_join(static_cast<const JoinOp&>(plan), *inputs[0],
                           *inputs[1]);
    case OpKind::kAggregate:
      return estimate_aggregate(static_cast<const AggregateOp&>(plan),
                                *inputs[0]);
  }
  MVD_ASSERT(false);
  return {};
}

double CostModel::op_cost(const LogicalOp& plan,
                          std::span<const NodeEstimate* const> inputs) const {
  MVD_ASSERT(inputs.size() == plan.children().size());
  switch (plan.kind()) {
    case OpKind::kScan:
      return 0;
    case OpKind::kSelect:
      return scan_op_cost(
          inputs[0]->blocks,
          is_pure_equality(static_cast<const SelectOp&>(plan).predicate()));
    case OpKind::kProject:
      return scan_op_cost(inputs[0]->blocks, /*pure_equality=*/false);
    case OpKind::kJoin:
      return join_op_cost(inputs[0]->blocks, inputs[1]->blocks);
    case OpKind::kAggregate:
      // Hash aggregation: one scan of the input.
      return scan_op_cost(inputs[0]->blocks, /*pure_equality=*/false);
  }
  MVD_ASSERT(false);
  return 0;
}

namespace {

// Every operator has at most two inputs (a join's).
constexpr std::size_t kMaxInputs = 2;

}  // namespace

NodeEstimate CostModel::estimate(const PlanPtr& plan) const {
  NodeEstimate est;
  full_cost(plan, &est);
  return est;
}

double CostModel::op_cost(const PlanPtr& plan) const {
  MVD_ASSERT(plan != nullptr);
  const std::vector<PlanPtr>& children = plan->children();
  MVD_ASSERT(children.size() <= kMaxInputs);
  NodeEstimate in[kMaxInputs];
  const NodeEstimate* inputs[kMaxInputs] = {&in[0], &in[1]};
  for (std::size_t i = 0; i < children.size(); ++i) {
    in[i] = estimate(children[i]);
  }
  return op_cost(*plan, {inputs, children.size()});
}

double CostModel::full_cost(const PlanPtr& plan, NodeEstimate* out) const {
  MVD_ASSERT(plan != nullptr);
  const std::vector<PlanPtr>& children = plan->children();
  MVD_ASSERT(children.size() <= kMaxInputs);
  NodeEstimate in[kMaxInputs];
  const NodeEstimate* inputs[kMaxInputs] = {&in[0], &in[1]};
  double child_cost[kMaxInputs] = {0, 0};
  for (std::size_t i = 0; i < children.size(); ++i) {
    child_cost[i] = full_cost(children[i], &in[i]);
  }
  const std::span<const NodeEstimate* const> span(inputs, children.size());
  if (plan->kind() == OpKind::kScan) {
    NodeEstimate est = estimate(*plan, span);
    const double blocks = est.blocks;  // a bare scan reads the relation
    if (out != nullptr) *out = std::move(est);
    return blocks;
  }
  double total = op_cost(*plan, span);
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (children[i]->kind() != OpKind::kScan) total += child_cost[i];
  }
  if (out != nullptr) *out = estimate(*plan, span);
  return total;
}

}  // namespace mvd
