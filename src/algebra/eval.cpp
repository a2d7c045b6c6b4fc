#include "src/algebra/eval.hpp"

#include <cmath>
#include <compare>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/storage/column_table.hpp"

namespace mvd {

struct CompiledExpr::Node {
  ExprKind kind = ExprKind::kLiteral;
  // kColumn
  std::size_t column_index = 0;
  // kLiteral
  Value literal;
  // kComparison
  CompareOp op = CompareOp::kEq;
  // children: lhs/rhs for comparison, operand(s) for bool/not
  std::vector<std::shared_ptr<const Node>> children;
};

CompiledExpr::CompiledExpr(const ExprPtr& expr, const Schema& schema) {
  MVD_ASSERT_MSG(expr != nullptr, "cannot compile null expression");
  root_ = compile(expr, schema);
}

std::shared_ptr<const CompiledExpr::Node> CompiledExpr::compile(
    const ExprPtr& expr, const Schema& schema) {
  auto node = std::make_shared<Node>();
  node->kind = expr->kind();
  switch (expr->kind()) {
    case ExprKind::kColumn:
      node->column_index =
          schema.index_of(static_cast<const ColumnExpr&>(*expr).name());
      break;
    case ExprKind::kLiteral:
      node->literal = static_cast<const LiteralExpr&>(*expr).value();
      break;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*expr);
      node->op = c.op();
      node->children.push_back(compile(c.lhs(), schema));
      node->children.push_back(compile(c.rhs(), schema));
      break;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const auto& op : static_cast<const BoolExpr&>(*expr).operands()) {
        node->children.push_back(compile(op, schema));
      }
      break;
    case ExprKind::kNot:
      node->children.push_back(
          compile(static_cast<const NotExpr&>(*expr).operand(), schema));
      break;
  }
  return node;
}

namespace {

/// `l OP r`. Two numerics compare as doubles under IEEE rules, as the
/// vectorized filters do: a NaN is unordered, so <> holds and every other
/// comparison fails. Any other pair compares by Value::compare.
bool holds(CompareOp op, const Value& l, const Value& r) {
  const std::partial_ordering ord =
      is_numeric(l.type()) && is_numeric(r.type())
          ? l.as_double() <=> r.as_double()
          : std::partial_ordering(l.compare(r));
  switch (op) {
    case CompareOp::kEq: return ord == 0;
    case CompareOp::kNe: return ord != 0;
    case CompareOp::kLt: return ord < 0;
    case CompareOp::kLe: return ord <= 0;
    case CompareOp::kGt: return ord > 0;
    case CompareOp::kGe: return ord >= 0;
  }
  MVD_ASSERT(false);
  return false;
}

}  // namespace

void CompiledExpr::add_columns(ColumnSet& out) const {
  const auto walk = [&out](const auto& self, const Node& n) -> void {
    if (n.kind == ExprKind::kColumn) out.add(n.column_index);
    for (const auto& c : n.children) self(self, *c);
  };
  walk(walk, *root_);
}

Value CompiledExpr::eval_node(const Node& node, const Tuple& tuple) {
  switch (node.kind) {
    case ExprKind::kColumn:
      MVD_ASSERT(node.column_index < tuple.size());
      return tuple[node.column_index];
    case ExprKind::kLiteral:
      return node.literal;
    case ExprKind::kComparison: {
      const Value l = eval_node(*node.children[0], tuple);
      const Value r = eval_node(*node.children[1], tuple);
      return Value::boolean(holds(node.op, l, r));
    }
    case ExprKind::kAnd: {
      for (const auto& c : node.children) {
        if (!eval_node(*c, tuple).as_bool()) return Value::boolean(false);
      }
      return Value::boolean(true);
    }
    case ExprKind::kOr: {
      for (const auto& c : node.children) {
        if (eval_node(*c, tuple).as_bool()) return Value::boolean(true);
      }
      return Value::boolean(false);
    }
    case ExprKind::kNot:
      return Value::boolean(!eval_node(*node.children[0], tuple).as_bool());
  }
  MVD_ASSERT(false);
  return Value::boolean(false);
}

Value CompiledExpr::evaluate(const Tuple& tuple) const {
  return eval_node(*root_, tuple);
}

Value CompiledExpr::eval_node_at(const Node& node, const ColumnTable& data,
                                 const std::vector<std::size_t>& col_map,
                                 std::size_t row) {
  switch (node.kind) {
    case ExprKind::kColumn:
      MVD_ASSERT(node.column_index < col_map.size());
      return data.value_at(row, col_map[node.column_index]);
    case ExprKind::kLiteral:
      return node.literal;
    case ExprKind::kComparison: {
      const Value l = eval_node_at(*node.children[0], data, col_map, row);
      const Value r = eval_node_at(*node.children[1], data, col_map, row);
      return Value::boolean(holds(node.op, l, r));
    }
    case ExprKind::kAnd: {
      for (const auto& c : node.children) {
        if (!eval_node_at(*c, data, col_map, row).as_bool()) {
          return Value::boolean(false);
        }
      }
      return Value::boolean(true);
    }
    case ExprKind::kOr: {
      for (const auto& c : node.children) {
        if (eval_node_at(*c, data, col_map, row).as_bool()) {
          return Value::boolean(true);
        }
      }
      return Value::boolean(false);
    }
    case ExprKind::kNot:
      return Value::boolean(
          !eval_node_at(*node.children[0], data, col_map, row).as_bool());
  }
  MVD_ASSERT(false);
  return Value::boolean(false);
}

Value CompiledExpr::evaluate_at(const ColumnTable& data,
                                const std::vector<std::size_t>& col_map,
                                std::size_t row) const {
  return eval_node_at(*root_, data, col_map, row);
}

namespace {

/// Row-id sources for the batch filters: a selection vector, or a dense
/// physical range whose ids are implicit. each(n, f) calls f on the first
/// n row ids in order.
struct SelRows {
  const std::uint32_t* sel;
  template <typename F>
  void each(std::size_t n, F&& f) const {
    for (std::size_t i = 0; i < n; ++i) f(sel[i]);
  }
};

struct RangeRows {
  std::uint32_t lo;
  template <typename F>
  void each(std::size_t n, F&& f) const {
    const auto hi = static_cast<std::uint32_t>(lo + n);
    for (std::uint32_t r = lo; r < hi; ++r) f(r);
  }
};

/// Run the comparison loop with both sides inlined, writing survivors to
/// `out` in order. The unconditional-store form (write the row, bump the
/// cursor by the predicate result) keeps the loop free of data-dependent
/// branches; `out` may alias a selection vector since the write cursor
/// never passes the read cursor.
template <typename Rows, typename GetL, typename GetR>
std::size_t filter_compare(CompareOp op, Rows rows, std::size_t n, GetL lhs,
                           GetR rhs, std::uint32_t* out) {
  auto keep = [&](auto pred) {
    std::size_t k = 0;
    rows.each(n, [&](std::uint32_t r) {
      out[k] = r;
      k += pred(lhs(r), rhs(r)) ? 1 : 0;
    });
    return k;
  };
  switch (op) {
    case CompareOp::kEq:
      return keep([](const auto& a, const auto& b) { return a == b; });
    case CompareOp::kNe:
      return keep([](const auto& a, const auto& b) { return a != b; });
    case CompareOp::kLt:
      return keep([](const auto& a, const auto& b) { return a < b; });
    case CompareOp::kLe:
      return keep([](const auto& a, const auto& b) { return a <= b; });
    case CompareOp::kGt:
      return keep([](const auto& a, const auto& b) { return a > b; });
    case CompareOp::kGe:
      return keep([](const auto& a, const auto& b) { return a >= b; });
  }
  MVD_ASSERT(false);
  return 0;
}

/// Rewrite `(double)v OP lit` over an int64 column into an equivalent
/// pure-int64 comparison (no per-row int->double conversion in the loop).
/// Exact for every int64 v when |lit| < 2^52: int->double conversion is
/// monotone and exact on [-2^52, 2^52], and any |v| > 2^52 lands on the
/// same side of the literal after rounding since |(double)v| >= 2^52 >
/// |lit|. Ordering ops translate through floor/ceil of the literal;
/// equality keeps the double path for non-integral literals.
bool int_cmp_rewrite(CompareOp op, double lit, CompareOp& iop,
                     std::int64_t& ilit) {
  constexpr double kExact = 4503599627370496.0;  // 2^52
  if (!(lit > -kExact && lit < kExact)) return false;  // rejects NaN too
  const double fl = std::floor(lit);
  iop = op;
  switch (op) {
    case CompareOp::kGt:  // v > 900.5  <=>  v > 900;  v > 900 unchanged
    case CompareOp::kLe:  // v <= 900.5 <=>  v <= 900
      ilit = static_cast<std::int64_t>(fl);
      return true;
    case CompareOp::kGe:  // v >= 900.5 <=>  v >= 901
    case CompareOp::kLt:  // v < 900.5  <=>  v < 901
      ilit = static_cast<std::int64_t>(std::ceil(lit));
      return true;
    case CompareOp::kEq:
    case CompareOp::kNe:
      if (fl != lit) return false;
      ilit = static_cast<std::int64_t>(lit);
      return true;
  }
  return false;
}

/// One comparison operand as the typed loops see it: a literal, or a
/// physical column of the batch.
struct Operand {
  const Value* literal = nullptr;  // null for a column
  std::size_t column = 0;
};

/// Hand `fn` a row -> double accessor when `side` is a numeric column or
/// literal. Numerics evaluate through double, matching Value::compare.
template <typename Fn>
bool with_numeric(const Operand& side, const ColumnTable& data, Fn&& fn) {
  if (side.literal != nullptr) {
    if (!is_numeric(side.literal->type())) return false;
    const double v = side.literal->as_double();
    fn([v](std::uint32_t) { return v; });
    return true;
  }
  switch (data.kind(side.column)) {
    case ColumnKind::kInt64Col: {
      const std::int64_t* p = data.i64(side.column).data();
      fn([p](std::uint32_t r) { return static_cast<double>(p[r]); });
      return true;
    }
    case ColumnKind::kDoubleCol: {
      const double* p = data.f64(side.column).data();
      fn([p](std::uint32_t r) { return p[r]; });
      return true;
    }
    default:
      return false;
  }
}

/// Same, for string columns/literals (accessor returns const string&).
template <typename Fn>
bool with_string(const Operand& side, const ColumnTable& data, Fn&& fn) {
  if (side.literal != nullptr) {
    if (side.literal->type() != ValueType::kString) return false;
    const std::string* v = &side.literal->as_string();
    fn([v](std::uint32_t) -> const std::string& { return *v; });
    return true;
  }
  if (data.kind(side.column) != ColumnKind::kStringCol) return false;
  const std::string* p = data.str(side.column).data();
  fn([p](std::uint32_t r) -> const std::string& { return p[r]; });
  return true;
}

/// `l OP r` as a typed loop over `rows`; nullopt when the operand types
/// have none (bool or mixed-type comparisons).
template <typename Rows>
std::optional<std::size_t> typed_compare(CompareOp op, Operand l, Operand r,
                                         const ColumnTable& data,
                                         const Rows& rows, std::size_t n,
                                         std::uint32_t* out) {
  if (l.literal != nullptr && r.literal == nullptr) {
    std::swap(l, r);  // literal first: flip so the rewrite sees col OP lit
    op = flip(op);
  }
  CompareOp iop = op;
  std::int64_t ilit = 0;
  if (l.literal == nullptr && r.literal != nullptr &&
      data.kind(l.column) == ColumnKind::kInt64Col &&
      is_numeric(r.literal->type()) &&
      int_cmp_rewrite(op, r.literal->as_double(), iop, ilit)) {
    const std::int64_t* p = data.i64(l.column).data();
    return filter_compare(
        iop, rows, n, [p](std::uint32_t x) { return p[x]; },
        [ilit](std::uint32_t) { return ilit; }, out);
  }
  std::optional<std::size_t> k;
  with_numeric(l, data, [&](auto la) {
    with_numeric(r, data, [&](auto ra) {
      k = filter_compare(op, rows, n, la, ra, out);
    });
  });
  if (k.has_value()) return k;
  with_string(l, data, [&](auto la) {
    with_string(r, data, [&](auto ra) {
      k = filter_compare(op, rows, n, la, ra, out);
    });
  });
  return k;
}

}  // namespace

template <typename Rows>
std::size_t CompiledExpr::filter_node(const Node& node,
                                      const ColumnTable& data,
                                      const std::vector<std::size_t>& col_map,
                                      const Rows& rows, std::size_t n,
                                      std::uint32_t* out) {
  const auto operand = [&](const Node& side) -> std::optional<Operand> {
    if (side.kind == ExprKind::kLiteral) return Operand{&side.literal, 0};
    if (side.kind == ExprKind::kColumn) {
      return Operand{nullptr, col_map[side.column_index]};
    }
    return std::nullopt;
  };
  switch (node.kind) {
    case ExprKind::kAnd: {
      // Conjunct by conjunct over the shrinking survivors — the batch
      // analogue of the row engine's short-circuit evaluation. Only the
      // first conjunct reads `rows`; later ones filter `out` in place
      // (safe: each row id is read before its slot can be written).
      if (node.children.empty()) break;
      std::size_t k =
          filter_node(*node.children[0], data, col_map, rows, n, out);
      for (std::size_t c = 1; c < node.children.size() && k > 0; ++c) {
        k = filter_node(*node.children[c], data, col_map, SelRows{out}, k,
                        out);
      }
      return k;
    }
    case ExprKind::kComparison: {
      const auto l = operand(*node.children[0]);
      const auto r = operand(*node.children[1]);
      if (l.has_value() && r.has_value()) {
        if (const auto k = typed_compare(node.op, *l, *r, data, rows, n, out)) {
          return *k;
        }
      }
      break;  // mixed/bool comparison: generic fallback below
    }
    default:
      break;
  }
  // Generic fallback: per-row evaluation of the whole node.
  std::size_t k = 0;
  rows.each(n, [&](std::uint32_t r) {
    if (eval_node_at(node, data, col_map, r).as_bool()) out[k++] = r;
  });
  return k;
}

std::size_t CompiledExpr::filter_batch(const ColumnTable& data,
                                       const std::vector<std::size_t>& col_map,
                                       const std::uint32_t* sel, std::size_t n,
                                       std::uint32_t* out) const {
  return filter_node(*root_, data, col_map, SelRows{sel}, n, out);
}

std::size_t CompiledExpr::filter_range(const ColumnTable& data,
                                       const std::vector<std::size_t>& col_map,
                                       std::uint32_t lo, std::uint32_t hi,
                                       std::uint32_t* out) const {
  return filter_node(*root_, data, col_map, RangeRows{lo}, hi - lo, out);
}

}  // namespace mvd
