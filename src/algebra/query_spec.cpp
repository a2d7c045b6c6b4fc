#include "src/algebra/query_spec.hpp"

#include <algorithm>
#include <string_view>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"

namespace mvd {

namespace {

std::string relation_of_column(const std::string& qualified) {
  const std::size_t dot = qualified.find('.');
  MVD_ASSERT_MSG(dot != std::string::npos,
                 "expected qualified column, got '" << qualified << "'");
  return qualified.substr(0, dot);
}

/// The output shape both identity strings end with. It stays in
/// declaration order because a permuted projection is a different result.
std::string output_shape(const QuerySpec& query) {
  std::string fp = "P[";
  fp += join(query.projection(), ",");
  fp += "]";
  if (query.has_aggregation()) {
    fp += " G[";
    fp += join(query.group_by(), ",");
    fp += "] A[";
    std::vector<std::string> aggs;
    for (const AggSpec& a : query.aggregates()) aggs.push_back(a.to_string());
    fp += join(aggs, ",");
    fp += "]";
  }
  return fp;
}

std::string sorted_relations(const QuerySpec& query) {
  std::vector<std::string> relations = query.relations();
  std::sort(relations.begin(), relations.end());
  return "R[" + join(relations, ",") + "]";
}

/// One walk of a conjunct: its Expr::to_string() text, built in place,
/// and when `shape` is set the same text with every literal rendered as a
/// typed slot ("?int64"), whose values are appended to `slots` in
/// rendering order.
void render(const ExprPtr& e, std::string& text, std::string* shape,
            std::vector<Value>* slots) {
  const auto both = [&](std::string_view piece) {
    text += piece;
    if (shape != nullptr) *shape += piece;
  };
  switch (e->kind()) {
    case ExprKind::kColumn:
      both(static_cast<const ColumnExpr&>(*e).name());
      return;
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*e).value();
      text += v.to_string();
      if (shape != nullptr) {
        *shape += '?';
        *shape += mvd::to_string(v.type());
        slots->push_back(v);
      }
      return;
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*e);
      both("(");
      render(c.lhs(), text, shape, slots);
      both(" ");
      both(mvd::to_string(c.op()));
      both(" ");
      render(c.rhs(), text, shape, slots);
      both(")");
      return;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& b = static_cast<const BoolExpr&>(*e);
      both("(");
      for (std::size_t i = 0; i < b.operands().size(); ++i) {
        if (i != 0) both(e->kind() == ExprKind::kAnd ? " AND " : " OR ");
        render(b.operands()[i], text, shape, slots);
      }
      both(")");
      return;
    }
    case ExprKind::kNot:
      both("(NOT ");
      render(static_cast<const NotExpr&>(*e).operand(), text, shape, slots);
      both(")");
      return;
  }
  MVD_ASSERT(false);
}

/// The canonical identity string behind QuerySpec::fingerprint(), around
/// the query's sorted_relations() and output_shape(). Sorted pieces make
/// it stable under FROM/WHERE reordering.
std::string compute_fingerprint(const QuerySpec& query,
                                const std::string& relations,
                                const std::string& output) {
  std::vector<std::string> joins;
  for (const JoinPredicate& j : query.joins()) joins.push_back(j.canonical());
  std::sort(joins.begin(), joins.end());
  std::vector<std::string> selections(query.selections().size());
  for (std::size_t i = 0; i < selections.size(); ++i) {
    render(query.selections()[i], selections[i], nullptr, nullptr);
  }
  std::sort(selections.begin(), selections.end());
  return relations + " J[" + join(joins, ",") + "] S[" +
         join(selections, ",") + "] " + output;
}

/// Call `f` on every literal of `e`, left to right.
template <typename F>
void visit_literals(const ExprPtr& e, const F& f) {
  switch (e->kind()) {
    case ExprKind::kColumn:
      return;
    case ExprKind::kLiteral:
      f(static_cast<const LiteralExpr&>(*e));
      return;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*e);
      visit_literals(c.lhs(), f);
      visit_literals(c.rhs(), f);
      return;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const ExprPtr& op : static_cast<const BoolExpr&>(*e).operands()) {
        visit_literals(op, f);
      }
      return;
    case ExprKind::kNot:
      visit_literals(static_cast<const NotExpr&>(*e).operand(), f);
      return;
  }
  MVD_ASSERT(false);
}

/// `e` with its literals replaced, left to right, by literals[next],
/// literals[next + 1], ...; subtrees without literals are shared, not
/// copied.
ExprPtr substitute(const ExprPtr& e, const std::vector<Value>& literals,
                   std::size_t& next) {
  switch (e->kind()) {
    case ExprKind::kColumn:
      return e;
    case ExprKind::kLiteral: {
      MVD_ASSERT(next < literals.size());
      const Value& v = literals[next++];
      MVD_ASSERT(v.type() == static_cast<const LiteralExpr&>(*e).value().type());
      return lit(v);
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*e);
      ExprPtr l = substitute(c.lhs(), literals, next);
      ExprPtr r = substitute(c.rhs(), literals, next);
      if (l == c.lhs() && r == c.rhs()) return e;
      return cmp(c.op(), std::move(l), std::move(r));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& b = static_cast<const BoolExpr&>(*e);
      std::vector<ExprPtr> ops;
      ops.reserve(b.operands().size());
      bool same = true;
      for (const ExprPtr& op : b.operands()) {
        ops.push_back(substitute(op, literals, next));
        same = same && ops.back() == op;
      }
      if (same) return e;
      return e->kind() == ExprKind::kAnd ? conj(std::move(ops))
                                         : disj(std::move(ops));
    }
    case ExprKind::kNot: {
      const ExprPtr& inner = static_cast<const NotExpr&>(*e).operand();
      ExprPtr op = substitute(inner, literals, next);
      return op == inner ? e : neg(std::move(op));
    }
  }
  MVD_ASSERT(false);
  return nullptr;
}

/// True when texts rendered to the slot-bearing `a` and `b` compare the
/// same way, and differ, for every literal: the two differ before the
/// first slot of either, where text and slot-bearing text agree.
bool decided(const std::string& a, const std::string& b) {
  const std::size_t end =
      std::min({a.find('?'), b.find('?'), a.size(), b.size()});
  return a.compare(0, end, b, 0, end) != 0;
}

/// The slot-bearing text of `e` (see render()).
std::string slot_text(const ExprPtr& e) {
  std::string text;
  std::string shape;
  std::vector<Value> slots;
  render(e, text, &shape, &slots);
  return shape;
}

}  // namespace

std::vector<Value> QuerySpec::selection_literals() const {
  std::vector<Value> out;
  for (const ExprPtr& s : selections_) {
    visit_literals(s, [&](const LiteralExpr& l) { out.push_back(l.value()); });
  }
  return out;
}

BoundShape::BoundShape(QuerySpec anchor) : anchor_(std::move(anchor)) {
  const QuerySpec& q = anchor_;
  // Every selection a comparison under NOTs, so normalize() sorts nothing
  // inside one and yields one conjunct per selection; nothing was merged.
  for (const ExprPtr& s : q.selections_) {
    const Expr* e = s.get();
    while (e->kind() == ExprKind::kNot) {
      e = static_cast<const NotExpr&>(*e).operand().get();
    }
    if (e->kind() != ExprKind::kComparison) return;
  }
  if (q.conjuncts_.size() != q.joins_.size() + q.selections_.size()) return;

  // fingerprint() sorts the selections' texts, the template its
  // conjuncts' (slot-bearing text first): neighbours must be decided.
  std::vector<std::string> texts(q.selections_.size());
  std::vector<std::size_t> order(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    render(q.selections_[i], texts[i], nullptr, nullptr);
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return texts[a] < texts[b]; });
  const auto all_decided = [](const std::vector<ExprPtr>& sorted) {
    std::string prev;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      std::string cur = slot_text(sorted[i]);
      if (i != 0 && !decided(prev, cur)) return false;
      prev = std::move(cur);
    }
    return true;
  };
  std::vector<ExprPtr> by_text;
  for (const std::size_t i : order) by_text.push_back(q.selections_[i]);
  if (!all_decided(by_text) || !all_decided(q.conjuncts_)) return;

  // normalize() moves literal nodes, never copies them: each slot's node
  // is one of the selections' literal nodes.
  std::vector<const LiteralExpr*> literals;
  for (const ExprPtr& s : q.selections_) {
    visit_literals(s, [&](const LiteralExpr& l) { literals.push_back(&l); });
  }
  std::vector<std::size_t> slot_literal;
  for (const ExprPtr& c : q.conjuncts_) {
    visit_literals(c, [&](const LiteralExpr& l) {
      const auto it = std::find(literals.begin(), literals.end(), &l);
      slot_literal.push_back(static_cast<std::size_t>(it - literals.begin()));
    });
  }
  if (std::find(slot_literal.begin(), slot_literal.end(), literals.size()) !=
      slot_literal.end()) {
    return;
  }

  // The anchor's fingerprint around its selection texts (identifiers hold
  // no " S[", so the first one opens them).
  std::size_t texts_size = texts.empty() ? 0 : texts.size() - 1;
  for (const std::string& t : texts) texts_size += t.size();
  const std::size_t head = q.fingerprint_.find(" S[") + 3;
  fingerprint_head_ = q.fingerprint_.substr(0, head);
  fingerprint_tail_ = q.fingerprint_.substr(head + texts_size);
  fingerprint_order_ = std::move(order);
  slot_literal_ = std::move(slot_literal);
  reuses_order_ = true;
}

QuerySpec BoundShape::instantiate(std::string name,
                                  const std::vector<Value>& literals) const {
  QuerySpec out;
  out.name_ = std::move(name);
  out.frequency_ = anchor_.frequency_;
  out.relations_ = anchor_.relations_;
  out.joins_ = anchor_.joins_;
  out.projection_ = anchor_.projection_;
  out.group_by_ = anchor_.group_by_;
  out.aggregates_ = anchor_.aggregates_;
  out.selections_.reserve(anchor_.selections_.size());
  std::size_t next = 0;
  for (const ExprPtr& s : anchor_.selections_) {
    out.selections_.push_back(substitute(s, literals, next));
  }
  MVD_ASSERT(next == literals.size());
  if (!reuses_order_) {
    out.compute_identity();
    return out;
  }

  out.fingerprint_ = fingerprint_head_;
  for (std::size_t i = 0; i < fingerprint_order_.size(); ++i) {
    if (i != 0) out.fingerprint_ += ',';
    render(out.selections_[fingerprint_order_[i]], out.fingerprint_, nullptr,
           nullptr);
  }
  out.fingerprint_ += fingerprint_tail_;
  out.slots_.reserve(slot_literal_.size());
  for (const std::size_t i : slot_literal_) out.slots_.push_back(literals[i]);
  next = 0;
  out.conjuncts_.reserve(anchor_.conjuncts_.size());
  for (const ExprPtr& c : anchor_.conjuncts_) {
    out.conjuncts_.push_back(substitute(c, out.slots_, next));
  }
  out.template_ = anchor_.template_;
  return out;
}

void QuerySpec::compute_identity() {
  const std::string relations = sorted_relations(*this);
  const std::string output = output_shape(*this);
  fingerprint_ = compute_fingerprint(*this, relations, output);

  // The conjuncts of normalize(joins AND selections), normalized one by
  // one (the top level is already flat) and then sorted and deduplicated
  // the way normalize() would, but by slot-bearing text first.
  struct Piece {
    std::string shape;
    std::string text;
    ExprPtr expr;
    std::vector<Value> slots;
  };
  std::vector<Piece> pieces;
  pieces.reserve(joins_.size() + selections_.size());
  const auto add = [&](const ExprPtr& conjunct) {
    for (ExprPtr& c : conjuncts_of(normalize(conjunct))) {
      Piece& p = pieces.emplace_back();
      render(c, p.text, &p.shape, &p.slots);
      p.expr = std::move(c);
    }
  };
  for (const JoinPredicate& j : joins_) add(j.expr());
  for (const ExprPtr& s : selections_) add(s);
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    return a.shape != b.shape ? a.shape < b.shape : a.text < b.text;
  });
  pieces.erase(std::unique(pieces.begin(), pieces.end(),
                           [](const Piece& a, const Piece& b) {
                             return a.text == b.text;
                           }),
               pieces.end());

  template_ = relations + " C[";
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) template_ += ",";
    template_ += pieces[i].shape;
    conjuncts_.push_back(std::move(pieces[i].expr));
    slots_.insert(slots_.end(), pieces[i].slots.begin(),
                  pieces[i].slots.end());
  }
  template_ += "] " + output;
}

std::string JoinPredicate::left_relation() const {
  return relation_of_column(left_column);
}

std::string JoinPredicate::right_relation() const {
  return relation_of_column(right_column);
}

std::string JoinPredicate::canonical() const {
  return left_column <= right_column
             ? left_column + " = " + right_column
             : right_column + " = " + left_column;
}

std::vector<ExprPtr> QuerySpec::selections_on(
    const std::string& relation) const {
  std::vector<ExprPtr> out;
  for (const ExprPtr& s : selections_) {
    const auto rels = relations_of_expr(s);
    if (rels.size() == 1 && *rels.begin() == relation) out.push_back(s);
  }
  return out;
}

std::vector<ExprPtr> QuerySpec::multi_relation_selections() const {
  std::vector<ExprPtr> out;
  for (const ExprPtr& s : selections_) {
    if (relations_of_expr(s).size() > 1) out.push_back(s);
  }
  return out;
}

std::set<std::string> QuerySpec::relations_of_expr(const ExprPtr& expr) {
  std::set<std::string> rels;
  for (const std::string& c : columns_of(expr)) {
    rels.insert(relation_of_column(c));
  }
  return rels;
}

std::set<std::string> QuerySpec::used_columns(
    const std::string& relation) const {
  std::set<std::string> cols;
  auto take = [&](const std::string& qualified) {
    if (relation_of_column(qualified) == relation) cols.insert(qualified);
  };
  for (const std::string& p : projection_) take(p);
  for (const ExprPtr& s : selections_) {
    for (const std::string& c : columns_of(s)) take(c);
  }
  for (const JoinPredicate& j : joins_) {
    take(j.left_column);
    take(j.right_column);
  }
  return cols;
}

std::vector<JoinPredicate> QuerySpec::joins_between(
    const std::string& a, const std::string& b) const {
  std::vector<JoinPredicate> out;
  for (const JoinPredicate& j : joins_) {
    const std::string lr = j.left_relation();
    const std::string rr = j.right_relation();
    if ((lr == a && rr == b) || (lr == b && rr == a)) out.push_back(j);
  }
  return out;
}

bool QuerySpec::join_graph_connected() const {
  if (relations_.size() <= 1) return true;
  std::set<std::string> reached = {relations_.front()};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const JoinPredicate& j : joins_) {
      const bool l = reached.contains(j.left_relation());
      const bool r = reached.contains(j.right_relation());
      if (l != r) {
        reached.insert(l ? j.right_relation() : j.left_relation());
        grew = true;
      }
    }
  }
  return reached.size() == relations_.size();
}

std::string QuerySpec::to_string() const {
  std::ostringstream os;
  os << name_ << " (fq=" << frequency_ << "): SELECT ";
  if (has_aggregation()) {
    std::vector<std::string> items = group_by_;
    for (const AggSpec& a : aggregates_) items.push_back(a.to_string());
    os << join(items, ", ");
  } else {
    os << join(projection_, ", ");
  }
  os << " FROM " << join(relations_, ", ");
  std::vector<std::string> preds;
  for (const JoinPredicate& j : joins_) preds.push_back(j.canonical());
  for (const ExprPtr& s : selections_) preds.push_back(s->to_string());
  if (!preds.empty()) os << " WHERE " << join(preds, " AND ");
  if (!group_by_.empty()) os << " GROUP BY " << join(group_by_, ", ");
  return os.str();
}

namespace {

// Render an expression as parseable SQL (DATE literals prefixed, infix
// AND/OR, NOT prefix).
std::string expr_sql(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kColumn:
      return static_cast<const ColumnExpr&>(*e).name();
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*e).value();
      if (v.type() == ValueType::kDate) return "DATE '" + v.to_string() + "'";
      if (v.type() == ValueType::kBool) return v.as_bool() ? "TRUE" : "FALSE";
      return v.to_string();
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(*e);
      return "(" + expr_sql(c.lhs()) + " " + to_string(c.op()) + " " +
             expr_sql(c.rhs()) + ")";
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& b = static_cast<const BoolExpr&>(*e);
      std::vector<std::string> parts;
      for (const ExprPtr& op : b.operands()) parts.push_back(expr_sql(op));
      return "(" + join(parts, e->kind() == ExprKind::kAnd ? " AND " : " OR ") +
             ")";
    }
    case ExprKind::kNot:
      return "(NOT " + expr_sql(static_cast<const NotExpr&>(*e).operand()) +
             ")";
  }
  MVD_ASSERT(false);
  return {};
}

}  // namespace

std::string QuerySpec::to_sql() const {
  std::ostringstream os;
  os << "SELECT ";
  if (has_aggregation()) {
    std::vector<std::string> items = group_by_;
    for (const AggSpec& a : aggregates_) {
      items.push_back(mvd::to_string(a.fn) + "(" +
                      (a.column.empty() ? "*" : a.column) + ") AS " + a.alias);
    }
    os << join(items, ", ");
  } else {
    os << join(projection_, ", ");
  }
  os << " FROM " << join(relations_, ", ");
  std::vector<std::string> preds;
  for (const JoinPredicate& j : joins_) {
    preds.push_back("(" + j.left_column + " = " + j.right_column + ")");
  }
  for (const ExprPtr& s : selections_) preds.push_back(expr_sql(s));
  if (!preds.empty()) os << " WHERE " << join(preds, " AND ");
  if (!group_by_.empty()) os << " GROUP BY " << join(group_by_, ", ");
  return os.str();
}

QuerySpec QuerySpec::bind(const Catalog& catalog, std::string name,
                          double frequency,
                          std::vector<std::string> relations,
                          const ExprPtr& where,
                          std::vector<std::string> select_list,
                          std::vector<std::string> group_by,
                          std::vector<AggSpec> aggregates) {
  if (relations.empty()) throw BindError("query needs at least one relation");
  if (!(frequency >= 0)) throw BindError("negative query frequency");
  for (std::size_t i = 0; i < relations.size(); ++i) {
    if (!catalog.has_relation(relations[i])) {
      throw CatalogError("unknown relation '" + relations[i] + "'");
    }
    for (std::size_t j = i + 1; j < relations.size(); ++j) {
      if (relations[i] == relations[j]) {
        throw BindError("relation '" + relations[i] +
                        "' listed twice (self-joins are not supported)");
      }
    }
  }

  // The joint schema over all FROM relations, with qualified sources.
  Schema joint;
  for (const std::string& r : relations) {
    joint = Schema::concat(joint, make_scan(catalog, r)->output_schema());
  }

  QuerySpec spec;
  spec.name_ = std::move(name);
  spec.frequency_ = frequency;
  spec.relations_ = std::move(relations);

  if (where != nullptr) {
    const ExprPtr bound = bind_expr(where, joint);
    for (const ExprPtr& conjunct : conjuncts_of(bound)) {
      if (auto pair = as_column_equality(conjunct);
          pair.has_value() && relation_of_column(pair->left) !=
                                  relation_of_column(pair->right)) {
        spec.joins_.push_back(JoinPredicate{pair->left, pair->right});
      } else {
        if (relations_of_expr(conjunct).empty()) {
          throw BindError("constant predicate '" + conjunct->to_string() +
                          "' is not supported");
        }
        spec.selections_.push_back(conjunct);
      }
    }
  }

  if (aggregates.empty()) {
    if (!group_by.empty()) {
      throw BindError("GROUP BY without aggregate functions is not supported");
    }
    if (select_list.empty()) throw BindError("empty SELECT list");
    for (const std::string& c : select_list) {
      const Attribute& a = joint.at(joint.index_of(c));
      const std::string q = a.qualified();
      if (std::find(spec.projection_.begin(), spec.projection_.end(), q) !=
          spec.projection_.end()) {
        throw BindError("duplicate SELECT column '" + q + "'");
      }
      spec.projection_.push_back(q);
    }
    spec.compute_identity();
    return spec;
  }

  // Aggregation query: qualify group columns, check the SELECT list's
  // plain columns are exactly the grouping columns, resolve aggregate
  // inputs and aliases.
  for (const std::string& g : group_by) {
    const std::string q = joint.at(joint.index_of(g)).qualified();
    if (std::find(spec.group_by_.begin(), spec.group_by_.end(), q) !=
        spec.group_by_.end()) {
      throw BindError("duplicate GROUP BY column '" + q + "'");
    }
    spec.group_by_.push_back(q);
  }
  for (const std::string& c : select_list) {
    const std::string q = joint.at(joint.index_of(c)).qualified();
    if (std::find(spec.group_by_.begin(), spec.group_by_.end(), q) ==
        spec.group_by_.end()) {
      throw BindError("SELECT column '" + q +
                      "' must appear in GROUP BY alongside aggregates");
    }
  }
  for (AggSpec& agg : aggregates) {
    if (!agg.column.empty()) {
      agg.column = joint.at(joint.index_of(agg.column)).qualified();
    }
    if (agg.alias.empty()) {
      // Same defaulting rule make_aggregate applies, fixed here so the
      // spec is self-describing (to_sql round-trips).
      const std::string base =
          agg.column.empty() ? "all"
                             : agg.column.substr(agg.column.find('.') + 1);
      agg.alias = mvd::to_string(agg.fn) + "_" + base;
    }
  }
  spec.aggregates_ = std::move(aggregates);

  // The attributes that must survive up to the aggregate operator.
  spec.projection_ = spec.group_by_;
  for (const AggSpec& agg : spec.aggregates_) {
    if (agg.column.empty()) continue;
    if (std::find(spec.projection_.begin(), spec.projection_.end(),
                  agg.column) == spec.projection_.end()) {
      spec.projection_.push_back(agg.column);
    }
  }
  if (spec.projection_.empty()) {
    // Global COUNT(*)-style query: keep one arbitrary column so the
    // intermediate plans have a non-empty schema.
    spec.projection_.push_back(joint.at(0).qualified());
  }
  spec.compute_identity();
  return spec;
}

PlanPtr apply_query_output(PlanPtr input, const QuerySpec& spec) {
  if (spec.has_aggregation()) {
    return make_aggregate(std::move(input), spec.group_by(),
                          spec.aggregates());
  }
  return make_project(std::move(input), spec.projection());
}

PlanPtr canonical_plan(const Catalog& catalog, const QuerySpec& spec) {
  std::vector<JoinPredicate> remaining = spec.joins();
  std::set<std::string> placed;

  PlanPtr plan = make_scan(catalog, spec.relations().front());
  placed.insert(spec.relations().front());

  for (std::size_t i = 1; i < spec.relations().size(); ++i) {
    const std::string& rel = spec.relations()[i];
    PlanPtr right = make_scan(catalog, rel);
    // Collect every not-yet-applied join conjunct linking `rel` to the
    // relations already in the plan.
    std::vector<ExprPtr> applicable;
    for (auto it = remaining.begin(); it != remaining.end();) {
      const bool connects =
          (placed.contains(it->left_relation()) && it->right_relation() == rel) ||
          (placed.contains(it->right_relation()) && it->left_relation() == rel);
      if (connects) {
        applicable.push_back(it->expr());
        it = remaining.erase(it);
      } else {
        ++it;
      }
    }
    // Cross join (TRUE predicate) when nothing connects yet.
    ExprPtr pred = applicable.empty() ? lit(Value::boolean(true))
                                      : conj(std::move(applicable));
    plan = make_join(std::move(plan), std::move(right), pred);
    placed.insert(rel);
  }
  // Join conjuncts that could not attach while building (both sides placed
  // late) are applied as selections.
  std::vector<ExprPtr> post;
  for (const JoinPredicate& j : remaining) post.push_back(j.expr());
  for (const ExprPtr& s : spec.selections()) post.push_back(s);
  if (!post.empty()) plan = make_select(std::move(plan), conj(std::move(post)));
  return apply_query_output(std::move(plan), spec);
}

}  // namespace mvd
