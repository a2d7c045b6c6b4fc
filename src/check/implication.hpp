// Predicate analysis over an interval abstract domain — the reasoning
// core of mvcheck (and, by design, of the future mvserve view-subsumption
// rewriter: "does the view's predicate imply the query's?" is implies()).
//
// A PredicateFacts accumulates the conjuncts of a predicate bound against
// one schema and maintains an index over them:
//   * union-find equivalence classes of columns linked by col = col
//     conjuncts (the equi-join fragment),
//   * per-class numeric intervals with open/closed endpoints, tightened
//     to integers when any class member has an integral type (int64 or
//     date: x > 5 and x >= 6 describe the same rows),
//   * per-class string/bool bindings and small disequality sets,
//   * ordering edges between classes for non-equality col-op-col
//     conjuncts,
//   * the normalized text of every conjunct, as a syntactic fallback.
//
// Everything outside that fragment (ORs, arithmetic the algebra does not
// have, cross-type comparisons) is kept only syntactically; queries about
// it answer conservatively. The three derived judgements:
//   contradictory(p): the facts are jointly unsatisfiable — a select with
//     this predicate is statically empty.
//   entails(c): every row satisfying the facts satisfies `c` — a later
//     conjunct `c` is redundant (always true here).
//   implies(p, q): facts(p) entail every conjunct of q. Sound, not
//     complete: true means q provably holds wherever p does; false means
//     "not proved". Note ex falso: a contradictory p implies everything.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/expr.hpp"
#include "src/catalog/schema.hpp"

namespace mvd {

/// A numeric interval with independently open/closed endpoints.
/// Default-constructed = (-inf, +inf), i.e. no constraint.
struct ValueInterval {
  double lo;
  bool lo_open = false;
  double hi;
  bool hi_open = false;

  ValueInterval();
  static ValueInterval point(double v);
  static ValueInterval at_least(double v, bool open);
  static ValueInterval at_most(double v, bool open);

  bool empty() const;
  bool contains_point(double v) const;
  /// Superset test: every point of `other` lies in *this.
  bool contains(const ValueInterval& other) const;
  /// True when every x in *this is strictly below every y in `other`.
  bool strictly_below(const ValueInterval& other) const;
  /// True when every x in *this is <= every y in `other`.
  bool weakly_below(const ValueInterval& other) const;
  /// True when the two intervals share no point.
  bool disjoint(const ValueInterval& other) const;
  /// The single value, when the interval is one closed point.
  std::optional<double> singleton() const;

  ValueInterval intersect(const ValueInterval& other) const;
  /// Shrink both endpoints to the integer lattice (for integral columns:
  /// x > 5.5 becomes x >= 6, x > 5 becomes x >= 6).
  ValueInterval integral_tightened() const;
};

class PredicateFacts {
 public:
  /// Empty fact set over `schema` (entails only tautologies).
  explicit PredicateFacts(Schema schema);
  /// Facts from every conjunct of `predicate` (normalized first).
  PredicateFacts(const ExprPtr& predicate, Schema schema);

  /// Ingest one more conjunct (normalized internally).
  void add(const ExprPtr& conjunct);

  /// True when the accumulated conjuncts admit no satisfying row.
  bool contradictory() const;

  /// True when `conjunct` holds on every row satisfying the facts.
  /// Conservative (false = not proved). Contradictory facts entail
  /// everything.
  bool entails(const ExprPtr& conjunct) const;

  /// True when the facts hold anything on `column`'s equivalence class:
  /// a bounded interval, a string/bool binding, a disequality set or an
  /// ordering edge. An unknown column answers true (conservative). When
  /// it answers false on non-contradictory facts, no `column op v` with
  /// op in {=, <, <=, >, >=} and a finite v of the column's kind is
  /// entailed, whatever v is.
  bool constrains(const std::string& column) const;

  /// The normalized conjuncts accumulated so far, in insertion order.
  const std::vector<ExprPtr>& conjuncts() const { return conjuncts_; }

  const Schema& schema() const { return schema_; }

 private:
  struct ClassState {
    ValueInterval interval;
    bool integral = false;  // some member column has int64/date type
    std::optional<std::string> str_eq;
    std::set<std::string> str_ne;
    std::optional<bool> bool_eq;
    std::set<double> num_ne;
  };
  struct OrderEdge {
    std::size_t left;  // class representatives at index time
    CompareOp op;      // kLt / kLe / kGt / kGe / kNe
    std::size_t right;
  };

  std::size_t find_rep(std::size_t col) const;
  void union_cols(std::size_t a, std::size_t b);
  ClassState& state_of(std::size_t col);
  const ClassState* state_ptr(std::size_t col) const;
  bool class_integral(std::size_t rep) const;
  /// The class interval with integral tightening and ne-set endpoint
  /// sharpening applied (x >= 5 plus x != 5 is x > 5).
  ValueInterval effective_interval(std::size_t col) const;

  void rebuild_index() const;
  void ingest(const ExprPtr& conjunct);
  void ingest_comparison(const ComparisonExpr& c);
  void refine_order(const OrderEdge& e);
  void mark_contradiction() { contradiction_ = true; }

  bool entails_indexed(const ExprPtr& conjunct) const;
  bool entails_comparison(const ComparisonExpr& c) const;

  Schema schema_;
  std::vector<ExprPtr> conjuncts_;

  // Index over conjuncts_, rebuilt lazily after add().
  mutable bool index_dirty_ = true;
  mutable std::vector<std::size_t> parent_;  // union-find over column index
  mutable std::map<std::size_t, ClassState> classes_;  // by representative
  mutable std::vector<OrderEdge> orders_;
  mutable std::set<std::string> conjunct_texts_;
  mutable bool contradiction_ = false;
};

/// facts(p) entail every conjunct of q. See PredicateFacts for the
/// supported fragment; sound but not complete.
bool implies(const ExprPtr& p, const ExprPtr& q, const Schema& schema);

/// The predicate admits no satisfying row (statically-empty select).
bool contradictory(const ExprPtr& p, const Schema& schema);

/// The predicate holds on every row (safe to drop).
bool tautological(const ExprPtr& p, const Schema& schema);

/// Bottom-up constant folding: literal-vs-literal comparisons evaluate,
/// same-column comparisons collapse (x = x is true, x < x is false),
/// AND/OR absorb literal operands, NOT of a literal negates. Returns the
/// original pointer when nothing folds (identity-preserving — callers
/// rely on pointer equality to detect "no change"). NaN literals are left
/// untouched.
ExprPtr fold_constants(const ExprPtr& expr);

}  // namespace mvd
