// QuerySpec: the bound select-project-join normal form of a warehouse query.
//
// The paper's framework (and its Figure 4 algorithm) reasons about queries
// as join patterns over base relations with selections and projections that
// can be pushed up or down freely. QuerySpec is exactly that
// representation: FROM relations, equi-join conjuncts, non-join selection
// conjuncts, and an output projection — all with fully-qualified column
// names. Plan trees are *generated from* a QuerySpec (by the optimizer, or
// canonically for ground-truth execution), never the other way round.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/expr.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/catalog/catalog.hpp"

namespace mvd {

/// One equi-join conjunct between two base relations, e.g.
/// Product.Did = Division.Did.
struct JoinPredicate {
  std::string left_column;   // qualified
  std::string right_column;  // qualified

  std::string left_relation() const;
  std::string right_relation() const;

  /// Rebuild the expression form.
  ExprPtr expr() const { return eq(col(left_column), col(right_column)); }

  /// Canonical text with the two sides ordered, for set comparisons.
  std::string canonical() const;

  friend bool operator==(const JoinPredicate&, const JoinPredicate&) = default;
};

class QuerySpec {
 public:
  QuerySpec() = default;

  const std::string& name() const { return name_; }
  double frequency() const { return frequency_; }
  void set_frequency(double fq) { frequency_ = fq; }

  /// Base relations in FROM order (no duplicates; self-joins unsupported).
  const std::vector<std::string>& relations() const { return relations_; }

  /// Non-join selection conjuncts (each references >= 1 relation).
  const std::vector<ExprPtr>& selections() const { return selections_; }

  /// Equi-join conjuncts.
  const std::vector<JoinPredicate>& joins() const { return joins_; }

  /// Qualified output columns in SELECT order. For aggregation queries
  /// this holds the grouping columns plus every aggregate input column —
  /// the attributes that must survive up to the aggregation operator.
  const std::vector<std::string>& projection() const { return projection_; }

  /// Aggregation (empty for plain SPJ queries). When present, the query's
  /// result is aggregate(group_by | aggregates) applied above joins and
  /// selections; its output lists group columns first, then aggregates.
  bool has_aggregation() const { return !aggregates_.empty(); }
  const std::vector<std::string>& group_by() const { return group_by_; }
  const std::vector<AggSpec>& aggregates() const { return aggregates_; }

  /// Selection conjuncts that reference only `relation`.
  std::vector<ExprPtr> selections_on(const std::string& relation) const;

  /// Selection conjuncts that reference more than one relation (must be
  /// applied above the joins).
  std::vector<ExprPtr> multi_relation_selections() const;

  /// Base relations referenced by a bound expression.
  static std::set<std::string> relations_of_expr(const ExprPtr& expr);

  /// Columns of `relation` this query needs anywhere (projection,
  /// selections, joins) — the projection-pushdown set of the paper's
  /// step 6, join attributes included.
  std::set<std::string> used_columns(const std::string& relation) const;

  /// Join predicates linking `a` and `b` (either orientation).
  std::vector<JoinPredicate> joins_between(const std::string& a,
                                           const std::string& b) const;

  /// True when the join graph over relations() is connected (no cross
  /// products needed).
  bool join_graph_connected() const;

  /// Canonical identity for frequency accounting: relations, join edges
  /// and selection conjuncts in sorted order plus the output shape —
  /// stable under FROM/WHERE reordering, insensitive to name() and
  /// frequency(). Computed once at bind time (empty only on a
  /// default-constructed spec) so per-serve telemetry does not pay for
  /// re-canonicalization.
  const std::string& fingerprint() const { return fingerprint_; }

  /// Literal-free identity of the query's shape, for serving by template:
  /// relations, conjuncts and output shape as in fingerprint(), with
  /// every literal replaced by a typed slot ("?int64", "?string", ...).
  /// Requests that differ only in literal values share it, whatever
  /// their FROM/WHERE order. Computed at bind time.
  const std::string& template_fingerprint() const { return template_; }

  /// The join and selection conjuncts, normalized (src/algebra/expr) and
  /// in template order: sorted by their slot-bearing text, ties by their
  /// full text.
  const std::vector<ExprPtr>& canonical_conjuncts() const {
    return conjuncts_;
  }

  /// The literals of canonical_conjuncts(), one per slot, in template
  /// order (conjunct by conjunct, left to right within each).
  const std::vector<Value>& template_slots() const { return slots_; }

  /// The literals of selections(), conjunct by conjunct and left to
  /// right within each: the order of the WHERE text they were bound from.
  std::vector<Value> selection_literals() const;

  std::string to_string() const;

  /// Emit the query back as parseable SQL text (the parser's own
  /// subset; dates rendered as DATE 'YYYY-MM-DD'). parse_and_bind() of
  /// the result reproduces this spec — round-trip fidelity is tested.
  std::string to_sql() const;

  /// Bind a query. `where` may be null (no predicate). Splits WHERE
  /// conjuncts into equi-joins and selections, qualifies every column
  /// name, and validates the projection. When `aggregates` is non-empty,
  /// `select_list` must equal the grouping columns (modulo
  /// qualification); aggregate columns/aliases are resolved and
  /// defaulted. Throws BindError/CatalogError.
  static QuerySpec bind(const Catalog& catalog, std::string name,
                        double frequency,
                        std::vector<std::string> relations,
                        const ExprPtr& where,
                        std::vector<std::string> select_list,
                        std::vector<std::string> group_by = {},
                        std::vector<AggSpec> aggregates = {});

 private:
  friend class BoundShape;

  /// Fill fingerprint_, conjuncts_, slots_ and template_ (end of bind).
  void compute_identity();

  std::string name_;
  double frequency_ = 1.0;
  std::vector<std::string> relations_;
  std::vector<ExprPtr> selections_;
  std::vector<JoinPredicate> joins_;
  std::vector<std::string> projection_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggregates_;
  std::string fingerprint_;
  std::vector<ExprPtr> conjuncts_;
  std::vector<Value> slots_;
  std::string template_;
};

/// A bound query to re-instantiate with other literals: serving by shape
/// binds a statement once and substitutes each later request's literals.
///
/// instantiate() returns what bind() returns for the same statement
/// written with the new literals, field for field but the name. Binding
/// never reads a literal value, so the joins, relations and output shape
/// carry over and the selections take the new literals in place; only the
/// identity (fingerprint, template order, slots) can depend on them, since
/// conjuncts are ordered and deduplicated by their text. It is recomputed
/// unless the anchor proves its order literal-free: every selection is a
/// comparison (under NOTs), and each two texts the identity sorts differ
/// before their first literal. Then no literal can reorder or merge
/// anything, and the anchor's template, order and slot positions are
/// reused.
class BoundShape {
 public:
  explicit BoundShape(QuerySpec anchor);

  const QuerySpec& anchor() const { return anchor_; }

  /// True when instantiate() reuses the anchor's order.
  bool reuses_order() const { return reuses_order_; }

  /// The anchor named `name` with its selection literals replaced, in
  /// selection_literals() order, by `literals` (same count and types).
  QuerySpec instantiate(std::string name,
                        const std::vector<Value>& literals) const;

 private:
  QuerySpec anchor_;
  bool reuses_order_ = false;
  /// With reuses_order_: fingerprint() around its selection texts, the
  /// selections in fingerprint order, and for each template slot the
  /// index of its literal in selection_literals().
  std::string fingerprint_head_;
  std::string fingerprint_tail_;
  std::vector<std::size_t> fingerprint_order_;
  std::vector<std::size_t> slot_literal_;
};

/// The final operator of a query: the aggregate for aggregation queries,
/// the output projection otherwise. Shared by every plan-construction
/// site (canonical plans, the optimizer, the MVPP builder).
PlanPtr apply_query_output(PlanPtr input, const QuerySpec& spec);

/// The canonical (unoptimized) plan: scans in FROM order joined
/// left-deep with their join conjuncts (cross join when none applies),
/// multi/single-relation selections on top, projection last. Used as the
/// semantics reference for executor tests; the optimizer produces better
/// trees with the same meaning.
PlanPtr canonical_plan(const Catalog& catalog, const QuerySpec& spec);

}  // namespace mvd
