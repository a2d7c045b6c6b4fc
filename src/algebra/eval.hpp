// Expression evaluation over tuples.
//
// CompiledExpr binds an Expr tree against a Schema once (resolving column
// names to tuple indices, with a BindError on unknown/ambiguous names) so
// that per-tuple evaluation does no string lookups.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/algebra/expr.hpp"
#include "src/catalog/schema.hpp"
#include "src/storage/table.hpp"

namespace mvd {

class ColumnTable;

class CompiledExpr {
 public:
  /// Bind `expr` against `schema`. Throws BindError on resolution failure.
  CompiledExpr(const ExprPtr& expr, const Schema& schema);

  /// Evaluate over one tuple of the bound schema.
  Value evaluate(const Tuple& tuple) const;

  /// evaluate() coerced to a predicate result; throws ExecError when the
  /// expression does not produce a bool.
  bool matches(const Tuple& tuple) const { return evaluate(tuple).as_bool(); }

  /// Column-batch entry points: write to `out`, in input order, the
  /// physical rows of `data` that satisfy the predicate and return their
  /// count. `filter_batch` reads the row ids `sel[0, n)` (`out` may alias
  /// `sel`); `filter_range` reads the dense row range [lo, hi), whose ids
  /// are implicit, so no selection vector is built for rows that fail the
  /// first conjunct (`out` must hold hi - lo ids). `col_map` translates
  /// bound-schema column indices to physical columns of `data`.
  /// Top-level conjunctions run conjunct by conjunct over the shrinking
  /// survivors; column-vs-literal and column-vs-column comparisons run as
  /// typed loops (an int64 column against a numeric literal as a pure
  /// int64 loop when that is exact), everything else falls back to
  /// per-row evaluation.
  std::size_t filter_batch(const ColumnTable& data,
                           const std::vector<std::size_t>& col_map,
                           const std::uint32_t* sel, std::size_t n,
                           std::uint32_t* out) const;
  std::size_t filter_range(const ColumnTable& data,
                           const std::vector<std::size_t>& col_map,
                           std::uint32_t lo, std::uint32_t hi,
                           std::uint32_t* out) const;

  /// Evaluate over one physical row of a ColumnTable (the generic
  /// fallback used by batch operators without a typed loop).
  Value evaluate_at(const ColumnTable& data,
                    const std::vector<std::size_t>& col_map,
                    std::size_t row) const;

 private:
  struct Node;
  std::shared_ptr<const Node> root_;

  static std::shared_ptr<const Node> compile(const ExprPtr& expr,
                                             const Schema& schema);
  static Value eval_node(const Node& node, const Tuple& tuple);
  static Value eval_node_at(const Node& node, const ColumnTable& data,
                            const std::vector<std::size_t>& col_map,
                            std::size_t row);
  /// Filter the first `n` row ids of `rows` through `node` into `out`.
  template <typename Rows>
  static std::size_t filter_node(const Node& node, const ColumnTable& data,
                                 const std::vector<std::size_t>& col_map,
                                 const Rows& rows, std::size_t n,
                                 std::uint32_t* out);
};

}  // namespace mvd
