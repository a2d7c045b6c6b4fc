#include "src/algebra/expr.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"

namespace mvd {

std::string to_string(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  MVD_ASSERT(false);
  return {};
}

CompareOp flip(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return CompareOp::kEq;
    case CompareOp::kNe: return CompareOp::kNe;
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
  }
  MVD_ASSERT(false);
  return op;
}

CompareOp negate(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return CompareOp::kNe;
    case CompareOp::kNe: return CompareOp::kEq;
    case CompareOp::kLt: return CompareOp::kGe;
    case CompareOp::kLe: return CompareOp::kGt;
    case CompareOp::kGt: return CompareOp::kLe;
    case CompareOp::kGe: return CompareOp::kLt;
  }
  MVD_ASSERT(false);
  return op;
}

ComparisonExpr::ComparisonExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
    : Expr(ExprKind::kComparison), op_(op), lhs_(std::move(lhs)),
      rhs_(std::move(rhs)) {
  MVD_ASSERT(lhs_ != nullptr && rhs_ != nullptr);
}

std::string ComparisonExpr::to_string() const {
  std::string out = "(";
  out += lhs_->to_string();
  out += ' ';
  out += mvd::to_string(op_);
  out += ' ';
  out += rhs_->to_string();
  out += ')';
  return out;
}

BoolExpr::BoolExpr(ExprKind kind, std::vector<ExprPtr> operands)
    : Expr(kind), operands_(std::move(operands)) {
  MVD_ASSERT(kind == ExprKind::kAnd || kind == ExprKind::kOr);
  MVD_ASSERT_MSG(operands_.size() >= 2, "BoolExpr needs >= 2 operands");
  for (const auto& op : operands_) MVD_ASSERT(op != nullptr);
}

std::string BoolExpr::to_string() const {
  const char* word = kind() == ExprKind::kAnd ? " AND " : " OR ";
  std::string out = "(";
  for (std::size_t i = 0; i < operands_.size(); ++i) {
    if (i != 0) out += word;
    out += operands_[i]->to_string();
  }
  out += ")";
  return out;
}

NotExpr::NotExpr(ExprPtr operand)
    : Expr(ExprKind::kNot), operand_(std::move(operand)) {
  MVD_ASSERT(operand_ != nullptr);
}

std::string NotExpr::to_string() const {
  return "(NOT " + operand_->to_string() + ")";
}

ExprPtr col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}
ExprPtr lit(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}
ExprPtr lit_i64(std::int64_t v) { return lit(Value::int64(v)); }
ExprPtr lit_str(std::string v) { return lit(Value::string(std::move(v))); }
ExprPtr lit_real(double v) { return lit(Value::real(v)); }

ExprPtr cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ComparisonExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr eq(ExprPtr lhs, ExprPtr rhs) {
  return cmp(CompareOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr lt(ExprPtr lhs, ExprPtr rhs) {
  return cmp(CompareOp::kLt, std::move(lhs), std::move(rhs));
}
ExprPtr gt(ExprPtr lhs, ExprPtr rhs) {
  return cmp(CompareOp::kGt, std::move(lhs), std::move(rhs));
}

ExprPtr conj(std::vector<ExprPtr> operands) {
  if (operands.empty()) return nullptr;
  if (operands.size() == 1) return operands.front();
  return std::make_shared<BoolExpr>(ExprKind::kAnd, std::move(operands));
}

ExprPtr disj(std::vector<ExprPtr> operands) {
  if (operands.empty()) return nullptr;
  if (operands.size() == 1) return operands.front();
  return std::make_shared<BoolExpr>(ExprKind::kOr, std::move(operands));
}

ExprPtr neg(ExprPtr operand) {
  return std::make_shared<NotExpr>(std::move(operand));
}

namespace {

void collect_columns(const ExprPtr& expr, std::set<std::string>& out) {
  switch (expr->kind()) {
    case ExprKind::kColumn:
      out.insert(static_cast<const ColumnExpr&>(*expr).name());
      return;
    case ExprKind::kLiteral:
      return;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*expr);
      collect_columns(c.lhs(), out);
      collect_columns(c.rhs(), out);
      return;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const auto& op : static_cast<const BoolExpr&>(*expr).operands()) {
        collect_columns(op, out);
      }
      return;
    case ExprKind::kNot:
      collect_columns(static_cast<const NotExpr&>(*expr).operand(), out);
      return;
  }
  MVD_ASSERT(false);
}

// Flatten same-kind BoolExprs into `out`.
void flatten(ExprKind kind, const ExprPtr& expr, std::vector<ExprPtr>& out) {
  if (expr->kind() == kind) {
    for (const auto& op : static_cast<const BoolExpr&>(*expr).operands()) {
      flatten(kind, op, out);
    }
  } else {
    out.push_back(expr);
  }
}

}  // namespace

std::set<std::string> columns_of(const ExprPtr& expr) {
  std::set<std::string> out;
  if (expr != nullptr) collect_columns(expr, out);
  return out;
}

std::vector<ExprPtr> conjuncts_of(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr != nullptr) flatten(ExprKind::kAnd, expr, out);
  return out;
}

ExprPtr normalize(const ExprPtr& expr) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*expr);
      ExprPtr l = normalize(c.lhs());
      ExprPtr r = normalize(c.rhs());
      CompareOp op = c.op();
      // Orient: literal-vs-column becomes column-vs-literal; two columns
      // are ordered lexicographically.
      const bool swap_lit =
          l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn;
      const bool swap_cols = l->kind() == ExprKind::kColumn &&
                             r->kind() == ExprKind::kColumn &&
                             r->to_string() < l->to_string();
      if (swap_lit || swap_cols) {
        std::swap(l, r);
        op = flip(op);
      }
      return cmp(op, std::move(l), std::move(r));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<ExprPtr> flat;
      flatten(expr->kind(), expr, flat);
      std::vector<ExprPtr> norm;
      norm.reserve(flat.size());
      for (const auto& e : flat) {
        ExprPtr n = normalize(e);
        // Normalizing children can re-expose same-kind nesting; reflatten.
        if (n->kind() == expr->kind()) {
          for (const auto& inner :
               static_cast<const BoolExpr&>(*n).operands()) {
            norm.push_back(inner);
          }
        } else {
          norm.push_back(std::move(n));
        }
      }
      std::sort(norm.begin(), norm.end(), [](const ExprPtr& a, const ExprPtr& b) {
        return a->to_string() < b->to_string();
      });
      norm.erase(std::unique(norm.begin(), norm.end(),
                             [](const ExprPtr& a, const ExprPtr& b) {
                               return a->to_string() == b->to_string();
                             }),
                 norm.end());
      return expr->kind() == ExprKind::kAnd ? conj(std::move(norm))
                                            : disj(std::move(norm));
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(*expr);
      ExprPtr inner = normalize(n.operand());
      if (inner->kind() == ExprKind::kComparison) {
        const auto& c = static_cast<const ComparisonExpr&>(*inner);
        return cmp(negate(c.op()), c.lhs(), c.rhs());
      }
      if (inner->kind() == ExprKind::kNot) {
        return static_cast<const NotExpr&>(*inner).operand();
      }
      return neg(std::move(inner));
    }
  }
  MVD_ASSERT(false);
  return nullptr;
}

bool expr_equal(const ExprPtr& a, const ExprPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return normalize(a)->to_string() == normalize(b)->to_string();
}

std::optional<ColumnPair> as_column_equality(const ExprPtr& expr) {
  if (expr == nullptr || expr->kind() != ExprKind::kComparison) {
    return std::nullopt;
  }
  const auto& c = static_cast<const ComparisonExpr&>(*expr);
  if (c.op() != CompareOp::kEq) return std::nullopt;
  if (c.lhs()->kind() != ExprKind::kColumn ||
      c.rhs()->kind() != ExprKind::kColumn) {
    return std::nullopt;
  }
  return ColumnPair{static_cast<const ColumnExpr&>(*c.lhs()).name(),
                    static_cast<const ColumnExpr&>(*c.rhs()).name()};
}

ExprPtr rewrite_columns(
    const ExprPtr& expr,
    const std::function<std::string(const std::string&)>& rename) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case ExprKind::kColumn:
      return col(rename(static_cast<const ColumnExpr&>(*expr).name()));
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*expr);
      return cmp(c.op(), rewrite_columns(c.lhs(), rename),
                 rewrite_columns(c.rhs(), rename));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& b = static_cast<const BoolExpr&>(*expr);
      std::vector<ExprPtr> ops;
      ops.reserve(b.operands().size());
      for (const auto& op : b.operands()) {
        ops.push_back(rewrite_columns(op, rename));
      }
      return expr->kind() == ExprKind::kAnd ? conj(std::move(ops))
                                            : disj(std::move(ops));
    }
    case ExprKind::kNot:
      return neg(rewrite_columns(static_cast<const NotExpr&>(*expr).operand(),
                                 rename));
  }
  MVD_ASSERT(false);
  return nullptr;
}

}  // namespace mvd
