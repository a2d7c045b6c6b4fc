#include "src/check/implication.hpp"

#include <cmath>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"

namespace mvd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool integral_type(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDate;
}

/// Values whose comparison is defined at runtime (Value::compare throws
/// across incompatible types).
bool comparable(ValueType a, ValueType b) {
  return (is_numeric(a) && is_numeric(b)) || a == b;
}

/// find() that answers nullopt instead of throwing on ambiguous bare
/// names — facts over a malformed schema stay conservative.
std::optional<std::size_t> safe_find(const Schema& schema,
                                     const std::string& name) {
  try {
    return schema.find(name);
  } catch (const BindError&) {
    return std::nullopt;
  }
}

bool is_nan(double v) { return v != v; }

/// `have` between two distinct columns implies `want` between them.
bool op_implies(CompareOp have, CompareOp want) {
  if (have == want) return true;
  switch (have) {
    case CompareOp::kEq:
      return want == CompareOp::kLe || want == CompareOp::kGe;
    case CompareOp::kLt:
      return want == CompareOp::kLe || want == CompareOp::kNe;
    case CompareOp::kGt:
      return want == CompareOp::kGe || want == CompareOp::kNe;
    default:
      return false;
  }
}

const ColumnExpr* as_col(const Expr* e) {
  return e->kind() == ExprKind::kColumn ? static_cast<const ColumnExpr*>(e)
                                        : nullptr;
}

const LiteralExpr* as_lit(const Expr* e) {
  return e->kind() == ExprKind::kLiteral ? static_cast<const LiteralExpr*>(e)
                                         : nullptr;
}

/// The interval of values x with `x op v`.
ValueInterval interval_of(CompareOp op, double v) {
  switch (op) {
    case CompareOp::kEq:
      return ValueInterval::point(v);
    case CompareOp::kLt:
      return ValueInterval::at_most(v, /*open=*/true);
    case CompareOp::kLe:
      return ValueInterval::at_most(v, /*open=*/false);
    case CompareOp::kGt:
      return ValueInterval::at_least(v, /*open=*/true);
    case CompareOp::kGe:
      return ValueInterval::at_least(v, /*open=*/false);
    case CompareOp::kNe:
      break;  // not convex; handled by the ne-sets
  }
  return ValueInterval();
}

}  // namespace

// ---- ValueInterval -----------------------------------------------------

ValueInterval::ValueInterval() : lo(-kInf), hi(kInf) {}

ValueInterval ValueInterval::point(double v) {
  ValueInterval i;
  i.lo = i.hi = v;
  return i;
}

ValueInterval ValueInterval::at_least(double v, bool open) {
  ValueInterval i;
  i.lo = v;
  i.lo_open = open;
  return i;
}

ValueInterval ValueInterval::at_most(double v, bool open) {
  ValueInterval i;
  i.hi = v;
  i.hi_open = open;
  return i;
}

bool ValueInterval::empty() const {
  if (lo > hi) return true;
  return lo == hi && (lo_open || hi_open);
}

bool ValueInterval::contains_point(double v) const {
  if (v < lo || (v == lo && lo_open)) return false;
  if (v > hi || (v == hi && hi_open)) return false;
  return true;
}

bool ValueInterval::contains(const ValueInterval& other) const {
  if (other.empty()) return true;
  const bool lo_ok = lo < other.lo || (lo == other.lo && (!lo_open || other.lo_open));
  const bool hi_ok = hi > other.hi || (hi == other.hi && (!hi_open || other.hi_open));
  return lo_ok && hi_ok;
}

bool ValueInterval::strictly_below(const ValueInterval& other) const {
  if (empty() || other.empty()) return true;
  return hi < other.lo || (hi == other.lo && (hi_open || other.lo_open));
}

bool ValueInterval::weakly_below(const ValueInterval& other) const {
  if (empty() || other.empty()) return true;
  if (hi < other.lo) return true;
  return hi == other.lo && !std::isinf(hi);
}

bool ValueInterval::disjoint(const ValueInterval& other) const {
  return strictly_below(other) || other.strictly_below(*this);
}

std::optional<double> ValueInterval::singleton() const {
  if (lo == hi && !lo_open && !hi_open && !std::isinf(lo)) return lo;
  return std::nullopt;
}

ValueInterval ValueInterval::intersect(const ValueInterval& other) const {
  ValueInterval out = *this;
  if (other.lo > out.lo || (other.lo == out.lo && other.lo_open)) {
    out.lo = other.lo;
    out.lo_open = other.lo_open;
  }
  if (other.hi < out.hi || (other.hi == out.hi && other.hi_open)) {
    out.hi = other.hi;
    out.hi_open = other.hi_open;
  }
  return out;
}

ValueInterval ValueInterval::integral_tightened() const {
  ValueInterval out = *this;
  if (!std::isinf(out.lo)) {
    out.lo = out.lo_open ? std::floor(out.lo) + 1 : std::ceil(out.lo);
    out.lo_open = false;
  }
  if (!std::isinf(out.hi)) {
    out.hi = out.hi_open ? std::ceil(out.hi) - 1 : std::floor(out.hi);
    out.hi_open = false;
  }
  return out;
}

// ---- PredicateFacts ----------------------------------------------------

PredicateFacts::PredicateFacts(Schema schema) : schema_(std::move(schema)) {}

PredicateFacts::PredicateFacts(const ExprPtr& predicate, Schema schema)
    : schema_(std::move(schema)) {
  add(predicate);
}

void PredicateFacts::add(const ExprPtr& conjunct) {
  if (conjunct == nullptr) return;
  for (const ExprPtr& c : conjuncts_of(normalize(conjunct))) {
    conjuncts_.push_back(c);
  }
  index_dirty_ = true;
}

std::size_t PredicateFacts::find_rep(std::size_t col) const {
  while (parent_[col] != col) {
    parent_[col] = parent_[parent_[col]];
    col = parent_[col];
  }
  return col;
}

bool PredicateFacts::class_integral(std::size_t rep) const {
  // A class holds one common value per row; if any member column's type
  // is integral, that value lies on the integer lattice.
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    if (find_rep(i) == rep && integral_type(schema_.at(i).type)) return true;
  }
  return false;
}

PredicateFacts::ClassState& PredicateFacts::state_of(std::size_t col) {
  return classes_[find_rep(col)];
}

ValueInterval PredicateFacts::effective_interval(std::size_t col) const {
  const ClassState* s = state_ptr(col);
  const bool integral = class_integral(find_rep(col));
  ValueInterval iv = s != nullptr ? s->interval : ValueInterval();
  if (integral) iv = iv.integral_tightened();
  if (s == nullptr || s->num_ne.empty()) return iv;
  // A closed endpoint the ne-set excludes opens: [5, H] with x != 5 is
  // (5, H]. On an integral class the opened endpoint re-tightens to the
  // next integer, which may itself be excluded — iterate. Each round
  // consumes at least one ne entry, so |ne| rounds suffice.
  for (std::size_t round = 0; round <= s->num_ne.size(); ++round) {
    bool changed = false;
    if (!std::isinf(iv.lo) && !iv.lo_open && s->num_ne.count(iv.lo) > 0) {
      iv.lo_open = true;
      changed = true;
    }
    if (!std::isinf(iv.hi) && !iv.hi_open && s->num_ne.count(iv.hi) > 0) {
      iv.hi_open = true;
      changed = true;
    }
    if (!changed) break;
    if (integral) iv = iv.integral_tightened();
  }
  return iv;
}

const PredicateFacts::ClassState* PredicateFacts::state_ptr(
    std::size_t col) const {
  const auto it = classes_.find(find_rep(col));
  return it == classes_.end() ? nullptr : &it->second;
}

void PredicateFacts::union_cols(std::size_t a, std::size_t b) {
  const std::size_t ra = find_rep(a);
  const std::size_t rb = find_rep(b);
  if (ra == rb) return;
  parent_[rb] = ra;
  const auto bit = classes_.find(rb);
  if (bit == classes_.end()) return;
  ClassState& into = classes_[ra];
  const ClassState& from = bit->second;
  into.interval = into.interval.intersect(from.interval);
  if (from.str_eq.has_value()) {
    if (into.str_eq.has_value() && *into.str_eq != *from.str_eq) {
      contradiction_ = true;
    }
    into.str_eq = from.str_eq;
  }
  into.str_ne.insert(from.str_ne.begin(), from.str_ne.end());
  if (from.bool_eq.has_value()) {
    if (into.bool_eq.has_value() && *into.bool_eq != *from.bool_eq) {
      contradiction_ = true;
    }
    into.bool_eq = from.bool_eq;
  }
  into.num_ne.insert(from.num_ne.begin(), from.num_ne.end());
  classes_.erase(bit);
}

void PredicateFacts::rebuild_index() const {
  parent_.resize(schema_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) parent_[i] = i;
  classes_.clear();
  orders_.clear();
  conjunct_texts_.clear();
  contradiction_ = false;

  auto* self = const_cast<PredicateFacts*>(this);

  // Pass 1: record texts, union the col = col equalities so every later
  // fact lands on final equivalence classes.
  for (const ExprPtr& c : conjuncts_) {
    conjunct_texts_.insert(c->to_string());
    if (c->kind() != ExprKind::kComparison) continue;
    const auto& cmp = static_cast<const ComparisonExpr&>(*c);
    if (cmp.op() != CompareOp::kEq) continue;
    const ColumnExpr* l = as_col(cmp.lhs().get());
    const ColumnExpr* r = as_col(cmp.rhs().get());
    if (l == nullptr || r == nullptr) continue;
    const auto li = safe_find(schema_, l->name());
    const auto ri = safe_find(schema_, r->name());
    if (!li.has_value() || !ri.has_value()) continue;
    if (!comparable(schema_.at(*li).type, schema_.at(*ri).type)) continue;
    self->union_cols(*li, *ri);
  }

  // Pass 2: per-conjunct facts.
  for (const ExprPtr& c : conjuncts_) self->ingest(c);

  // Pass 3: ordering edges tighten intervals until fixpoint (edge count
  // bounds the chain length, so |edges| rounds suffice).
  for (std::size_t round = 0; round <= orders_.size(); ++round) {
    for (const OrderEdge& e : orders_) self->refine_order(e);
  }

  // Pass 4: joint satisfiability.
  for (const auto& [rep, s] : classes_) {
    const ValueInterval iv = effective_interval(rep);
    if (iv.empty()) self->mark_contradiction();
    if (const auto v = iv.singleton(); v.has_value() && s.num_ne.count(*v)) {
      self->mark_contradiction();
    }
    if (s.str_eq.has_value() && s.str_ne.count(*s.str_eq)) {
      self->mark_contradiction();
    }
  }
  index_dirty_ = false;
}

void PredicateFacts::ingest(const ExprPtr& conjunct) {
  switch (conjunct->kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*conjunct).value();
      if (v.type() == ValueType::kBool && !v.as_bool()) mark_contradiction();
      return;
    }
    case ExprKind::kColumn: {
      const auto i = safe_find(schema_, static_cast<const ColumnExpr&>(*conjunct).name());
      if (!i.has_value() || schema_.at(*i).type != ValueType::kBool) return;
      ClassState& s = state_of(*i);
      if (s.bool_eq.has_value() && !*s.bool_eq) mark_contradiction();
      s.bool_eq = true;
      return;
    }
    case ExprKind::kNot: {
      const ExprPtr& inner = static_cast<const NotExpr&>(*conjunct).operand();
      if (inner->kind() == ExprKind::kOr) {
        // De Morgan as a fact source: NOT (A OR B) asserts both NOT A and
        // NOT B, which land in the index as real constraints.
        for (const ExprPtr& o : static_cast<const BoolExpr&>(*inner).operands()) {
          ingest(normalize(neg(o)));
        }
        return;
      }
      const ColumnExpr* c = as_col(inner.get());
      if (c == nullptr) return;
      const auto i = safe_find(schema_, c->name());
      if (!i.has_value() || schema_.at(*i).type != ValueType::kBool) return;
      ClassState& s = state_of(*i);
      if (s.bool_eq.has_value() && *s.bool_eq) mark_contradiction();
      s.bool_eq = false;
      return;
    }
    case ExprKind::kComparison:
      ingest_comparison(static_cast<const ComparisonExpr&>(*conjunct));
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr:
      return;  // conjuncts_of unfolds AND; OR stays syntactic
  }
}

void PredicateFacts::ingest_comparison(const ComparisonExpr& c) {
  const ColumnExpr* lc = as_col(c.lhs().get());
  const LiteralExpr* rl = as_lit(c.rhs().get());
  const ColumnExpr* rc = as_col(c.rhs().get());

  if (lc == nullptr) {
    // Literal-vs-literal (normalize orients columns first, so no column
    // hides on the right): fold — a false constraint is a contradiction.
    const ExprPtr folded = fold_constants(
        cmp(c.op(), c.lhs(), c.rhs()));
    if (const LiteralExpr* l = as_lit(folded.get());
        l != nullptr && l->value().type() == ValueType::kBool &&
        !l->value().as_bool()) {
      mark_contradiction();
    }
    return;
  }
  const auto li = safe_find(schema_, lc->name());
  if (!li.has_value()) return;
  const ValueType lt = schema_.at(*li).type;

  if (rl != nullptr) {
    const Value& v = rl->value();
    if (is_numeric(lt) && is_numeric(v.type())) {
      const double d = v.as_double();
      if (is_nan(d)) return;
      ClassState& s = state_of(*li);
      const bool integral = class_integral(find_rep(*li));
      if (c.op() == CompareOp::kNe) {
        if (integral && d != std::floor(d)) return;  // trivially true
        s.num_ne.insert(d);
        return;
      }
      ValueInterval target = interval_of(c.op(), d);
      if (integral) target = target.integral_tightened();
      s.interval = s.interval.intersect(target);
      return;
    }
    if (lt == ValueType::kString && v.type() == ValueType::kString) {
      ClassState& s = state_of(*li);
      if (c.op() == CompareOp::kEq) {
        if (s.str_eq.has_value() && *s.str_eq != v.as_string()) {
          mark_contradiction();
        }
        s.str_eq = v.as_string();
      } else if (c.op() == CompareOp::kNe) {
        s.str_ne.insert(v.as_string());
      }
      return;  // string ordering stays syntactic
    }
    if (lt == ValueType::kBool && v.type() == ValueType::kBool) {
      if (c.op() != CompareOp::kEq && c.op() != CompareOp::kNe) return;
      const bool want = c.op() == CompareOp::kEq ? v.as_bool() : !v.as_bool();
      ClassState& s = state_of(*li);
      if (s.bool_eq.has_value() && *s.bool_eq != want) mark_contradiction();
      s.bool_eq = want;
      return;
    }
    return;  // cross-type: runtime error territory, stays syntactic
  }

  if (rc == nullptr) return;
  const auto ri = safe_find(schema_, rc->name());
  if (!ri.has_value()) return;
  const ValueType rt = schema_.at(*ri).type;
  if (!comparable(lt, rt)) return;
  const std::size_t ra = find_rep(*li);
  const std::size_t rb = find_rep(*ri);
  if (ra == rb) {
    // x and y provably equal: x <= y / x >= y are tautologies, strict
    // orders and disequality are contradictions. kEq was pass 1.
    if (c.op() == CompareOp::kLt || c.op() == CompareOp::kGt ||
        c.op() == CompareOp::kNe) {
      mark_contradiction();
    }
    return;
  }
  if (c.op() == CompareOp::kEq) return;  // incomparable-type eq: syntactic
  if (is_numeric(lt) && is_numeric(rt)) {
    orders_.push_back(OrderEdge{ra, c.op(), rb});
  }
}

void PredicateFacts::refine_order(const OrderEdge& e) {
  if (e.op == CompareOp::kNe) return;
  ClassState& l = classes_[e.left];
  ClassState& r = classes_[e.right];
  // a < b and b <= H imply a < H; a < b and a >= L imply b > L. The
  // non-strict forms inherit the neighbour's openness.
  const bool strict = e.op == CompareOp::kLt || e.op == CompareOp::kGt;
  ClassState& below = (e.op == CompareOp::kLt || e.op == CompareOp::kLe) ? l : r;
  ClassState& above = (e.op == CompareOp::kLt || e.op == CompareOp::kLe) ? r : l;
  if (!std::isinf(above.interval.hi)) {
    below.interval = below.interval.intersect(ValueInterval::at_most(
        above.interval.hi, strict || above.interval.hi_open));
  }
  if (!std::isinf(below.interval.lo)) {
    above.interval = above.interval.intersect(ValueInterval::at_least(
        below.interval.lo, strict || below.interval.lo_open));
  }
}

bool PredicateFacts::contradictory() const {
  if (index_dirty_) rebuild_index();
  return contradiction_;
}

bool PredicateFacts::entails(const ExprPtr& conjunct) const {
  if (conjunct == nullptr) return true;
  if (index_dirty_) rebuild_index();
  if (contradiction_) return true;  // ex falso
  const ExprPtr n = normalize(conjunct);
  for (const ExprPtr& c : conjuncts_of(n)) {
    if (!entails_indexed(c)) return false;
  }
  return true;
}

bool PredicateFacts::constrains(const std::string& column) const {
  if (index_dirty_) rebuild_index();
  const auto i = safe_find(schema_, column);
  if (!i.has_value()) return true;
  const std::size_t rep = find_rep(*i);
  for (const OrderEdge& e : orders_) {
    if (e.left == rep || e.right == rep) return true;
  }
  const ClassState* s = state_ptr(*i);
  if (s == nullptr) return false;
  // An open endpoint at an infinity still entails no finite comparison.
  return s->interval.lo != -kInf || s->interval.hi != kInf ||
         s->str_eq.has_value() || s->bool_eq.has_value() ||
         !s->str_ne.empty() || !s->num_ne.empty();
}

bool PredicateFacts::entails_indexed(const ExprPtr& c) const {
  if (conjunct_texts_.count(c->to_string())) return true;
  switch (c->kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*c).value();
      return v.type() == ValueType::kBool && v.as_bool();
    }
    case ExprKind::kColumn: {
      const auto i = safe_find(schema_, static_cast<const ColumnExpr&>(*c).name());
      if (!i.has_value()) return false;
      const ClassState* s = state_ptr(*i);
      return s != nullptr && s->bool_eq == true;
    }
    case ExprKind::kNot: {
      const ExprPtr& inner = static_cast<const NotExpr&>(*c).operand();
      if (const ColumnExpr* col = as_col(inner.get()); col != nullptr) {
        const auto i = safe_find(schema_, col->name());
        if (!i.has_value()) return false;
        const ClassState* s = state_ptr(*i);
        return s != nullptr && s->bool_eq == false;
      }
      // De Morgan: NOT (A AND B) holds wherever some NOT A_i holds;
      // NOT (A OR B) needs every NOT A_i. normalize() already pushed NOT
      // through comparisons and double negations, so only AND/OR remain.
      if (inner->kind() == ExprKind::kAnd || inner->kind() == ExprKind::kOr) {
        const bool need_all = inner->kind() == ExprKind::kOr;
        for (const ExprPtr& o : static_cast<const BoolExpr&>(*inner).operands()) {
          const bool holds = entails_indexed(normalize(neg(o)));
          if (holds && !need_all) return true;
          if (!holds && need_all) return false;
        }
        return need_all;
      }
      return false;
    }
    case ExprKind::kOr: {
      for (const ExprPtr& o : static_cast<const BoolExpr&>(*c).operands()) {
        if (entails_indexed(o)) return true;
      }
      return false;
    }
    case ExprKind::kAnd: {
      for (const ExprPtr& o : static_cast<const BoolExpr&>(*c).operands()) {
        if (!entails_indexed(o)) return false;
      }
      return true;
    }
    case ExprKind::kComparison:
      return entails_comparison(static_cast<const ComparisonExpr&>(*c));
  }
  return false;
}

bool PredicateFacts::entails_comparison(const ComparisonExpr& c) const {
  const ColumnExpr* lc = as_col(c.lhs().get());
  const LiteralExpr* rl = as_lit(c.rhs().get());
  const ColumnExpr* rc = as_col(c.rhs().get());

  if (lc == nullptr) {
    const ExprPtr folded = fold_constants(cmp(c.op(), c.lhs(), c.rhs()));
    const LiteralExpr* l = as_lit(folded.get());
    return l != nullptr && l->value().type() == ValueType::kBool &&
           l->value().as_bool();
  }
  const auto li = safe_find(schema_, lc->name());
  if (!li.has_value()) return false;
  const ValueType lt = schema_.at(*li).type;

  if (rl != nullptr) {
    const Value& v = rl->value();
    if (is_numeric(lt) && is_numeric(v.type())) {
      const double d = v.as_double();
      if (is_nan(d)) return false;
      const ClassState* s = state_ptr(*li);
      const bool integral = class_integral(find_rep(*li));
      const ValueInterval have = effective_interval(*li);
      if (c.op() == CompareOp::kNe) {
        if (integral && d != std::floor(d)) return true;
        if (!have.contains_point(d)) return true;
        return s != nullptr && s->num_ne.count(d) > 0;
      }
      ValueInterval target = interval_of(c.op(), d);
      if (integral) target = target.integral_tightened();
      return target.contains(have);
    }
    if (lt == ValueType::kString && v.type() == ValueType::kString) {
      const ClassState* s = state_ptr(*li);
      if (s == nullptr) return false;
      if (c.op() == CompareOp::kEq) return s->str_eq == v.as_string();
      if (c.op() == CompareOp::kNe) {
        return (s->str_eq.has_value() && *s->str_eq != v.as_string()) ||
               s->str_ne.count(v.as_string()) > 0;
      }
      return false;
    }
    if (lt == ValueType::kBool && v.type() == ValueType::kBool) {
      const ClassState* s = state_ptr(*li);
      if (s == nullptr || !s->bool_eq.has_value()) return false;
      if (c.op() == CompareOp::kEq) return *s->bool_eq == v.as_bool();
      if (c.op() == CompareOp::kNe) return *s->bool_eq != v.as_bool();
      return false;
    }
    return false;
  }

  if (rc == nullptr) return false;
  const auto ri = safe_find(schema_, rc->name());
  if (!ri.has_value()) return false;
  const ValueType rt = schema_.at(*ri).type;
  const std::size_t ra = find_rep(*li);
  const std::size_t rb = find_rep(*ri);
  if (ra == rb) {
    return c.op() == CompareOp::kEq || c.op() == CompareOp::kLe ||
           c.op() == CompareOp::kGe;
  }
  for (const OrderEdge& e : orders_) {
    if (e.left == ra && e.right == rb && op_implies(e.op, c.op())) return true;
    if (e.left == rb && e.right == ra && op_implies(flip(e.op), c.op())) {
      return true;
    }
  }
  if (is_numeric(lt) && is_numeric(rt)) {
    const ValueInterval a = effective_interval(*li);
    const ValueInterval b = effective_interval(*ri);
    switch (c.op()) {
      case CompareOp::kLt:
        return a.strictly_below(b);
      case CompareOp::kLe:
        return a.weakly_below(b);
      case CompareOp::kGt:
        return b.strictly_below(a);
      case CompareOp::kGe:
        return b.weakly_below(a);
      case CompareOp::kNe:
        return a.disjoint(b);
      case CompareOp::kEq: {
        const auto av = a.singleton();
        const auto bv = b.singleton();
        return av.has_value() && bv.has_value() && *av == *bv;
      }
    }
  }
  return false;
}

// ---- Free functions ----------------------------------------------------

bool implies(const ExprPtr& p, const ExprPtr& q, const Schema& schema) {
  if (q == nullptr) return true;
  PredicateFacts facts(p, schema);
  return facts.entails(q);
}

bool contradictory(const ExprPtr& p, const Schema& schema) {
  return PredicateFacts(p, schema).contradictory();
}

bool tautological(const ExprPtr& p, const Schema& schema) {
  if (p == nullptr) return true;
  return PredicateFacts(schema).entails(p);
}

ExprPtr fold_constants(const ExprPtr& expr) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*expr);
      const ExprPtr l = fold_constants(c.lhs());
      const ExprPtr r = fold_constants(c.rhs());
      const LiteralExpr* ll = as_lit(l.get());
      const LiteralExpr* rr = as_lit(r.get());
      if (ll != nullptr && rr != nullptr) {
        const Value& a = ll->value();
        const Value& b = rr->value();
        const bool nan =
            (a.type() == ValueType::kDouble && is_nan(a.as_double())) ||
            (b.type() == ValueType::kDouble && is_nan(b.as_double()));
        if (comparable(a.type(), b.type()) && !nan) {
          const auto ord = a.compare(b);
          bool res = false;
          switch (c.op()) {
            case CompareOp::kEq: res = ord == 0; break;
            case CompareOp::kNe: res = ord != 0; break;
            case CompareOp::kLt: res = ord < 0; break;
            case CompareOp::kLe: res = ord <= 0; break;
            case CompareOp::kGt: res = ord > 0; break;
            case CompareOp::kGe: res = ord >= 0; break;
          }
          return lit(Value::boolean(res));
        }
      }
      const ColumnExpr* cl = as_col(l.get());
      const ColumnExpr* cr = as_col(r.get());
      if (cl != nullptr && cr != nullptr && cl->name() == cr->name()) {
        // Same column on both sides: the comparison is decided by the op.
        const bool res = c.op() == CompareOp::kEq ||
                         c.op() == CompareOp::kLe || c.op() == CompareOp::kGe;
        return lit(Value::boolean(res));
      }
      if (l == c.lhs() && r == c.rhs()) return expr;
      return cmp(c.op(), l, r);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& b = static_cast<const BoolExpr&>(*expr);
      const bool is_and = expr->kind() == ExprKind::kAnd;
      std::vector<ExprPtr> kept;
      bool changed = false;
      for (const ExprPtr& o : b.operands()) {
        const ExprPtr f = fold_constants(o);
        if (f != o) changed = true;
        if (const LiteralExpr* fl = as_lit(f.get());
            fl != nullptr && fl->value().type() == ValueType::kBool) {
          const bool v = fl->value().as_bool();
          if (v == is_and) {
            changed = true;  // neutral operand: drop
            continue;
          }
          return lit(Value::boolean(!is_and));  // absorbing operand
        }
        kept.push_back(f);
      }
      if (!changed) return expr;
      if (kept.empty()) return lit(Value::boolean(is_and));
      if (kept.size() == 1) return kept[0];
      return is_and ? conj(std::move(kept)) : disj(std::move(kept));
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(*expr);
      const ExprPtr o = fold_constants(n.operand());
      if (const LiteralExpr* ol = as_lit(o.get());
          ol != nullptr && ol->value().type() == ValueType::kBool) {
        return lit(Value::boolean(!ol->value().as_bool()));
      }
      if (o == n.operand()) return expr;
      return neg(o);
    }
  }
  MVD_ASSERT(false);
  return expr;
}

}  // namespace mvd
