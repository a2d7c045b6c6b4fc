#include "src/check/check.hpp"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "src/algebra/aggregate.hpp"
#include "src/check/implication.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"

namespace mvd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// hi-bound product that keeps 0 absorbing (inf * 0 would be NaN).
double card_mul(double a, double b) { return (a == 0 || b == 0) ? 0 : a * b; }

struct SafeFind {
  std::optional<std::size_t> index;
  bool ambiguous = false;
};

SafeFind safe_find(const Schema& schema, const std::string& name) {
  SafeFind out;
  try {
    out.index = schema.find(name);
  } catch (const BindError&) {
    out.ambiguous = true;
  }
  return out;
}

struct Analyzer {
  const CheckOptions& opts;
  CheckReport& report;

  struct Info {
    CardInterval card;
    /// Conjuncts known true of every output row (normalized).
    std::vector<ExprPtr> facts;
  };
  std::map<const LogicalOp*, Info> memo;

  void finding(const char* rule, Severity severity, const LogicalOp& node,
               std::string message, std::string hint = {}) {
    Diagnostic d;
    d.rule = rule;
    d.severity = severity;
    d.subject = node.label();
    d.message = std::move(message);
    d.hint = std::move(hint);
    report.findings.add(std::move(d));
  }

  /// Resolve `name` against `schema`, reporting failures under `rule`.
  std::optional<std::size_t> resolve(const std::string& name,
                                     const Schema& schema, const char* rule,
                                     const LogicalOp& node) {
    const SafeFind f = safe_find(schema, name);
    if (f.ambiguous) {
      finding(rule, Severity::kError, node,
              "column '" + name + "' is ambiguous in " + schema.to_string(),
              "qualify it as Source.column");
      return std::nullopt;
    }
    if (!f.index.has_value()) {
      finding(rule, Severity::kError, node,
              "references unknown column '" + name + "'",
              "input schema is " + schema.to_string());
    }
    return f.index;
  }

  /// Bottom-up type inference over one expression; reports resolution and
  /// type findings against `node`. nullopt = type unknown (already
  /// reported).
  std::optional<ValueType> infer(const ExprPtr& e, const Schema& schema,
                                 const LogicalOp& node) {
    switch (e->kind()) {
      case ExprKind::kColumn: {
        const auto idx = resolve(static_cast<const ColumnExpr&>(*e).name(),
                                 schema, "check/column-resolve", node);
        if (!idx.has_value()) return std::nullopt;
        return schema.at(*idx).type;
      }
      case ExprKind::kLiteral:
        return static_cast<const LiteralExpr&>(*e).value().type();
      case ExprKind::kComparison: {
        const auto& c = static_cast<const ComparisonExpr&>(*e);
        const auto lt = infer(c.lhs(), schema, node);
        const auto rt = infer(c.rhs(), schema, node);
        if (lt.has_value() && rt.has_value() && *lt != *rt &&
            !(is_numeric(*lt) && is_numeric(*rt))) {
          finding("check/type-mismatch", Severity::kError, node,
                  "comparison " + e->to_string() + " mixes " + to_string(*lt) +
                      " and " + to_string(*rt),
                  "Value::compare throws ExecError on the first row");
        }
        return ValueType::kBool;
      }
      case ExprKind::kAnd:
      case ExprKind::kOr: {
        for (const ExprPtr& op :
             static_cast<const BoolExpr&>(*e).operands()) {
          const auto t = infer(op, schema, node);
          if (t.has_value() && *t != ValueType::kBool) {
            finding("check/predicate-type", Severity::kError, node,
                    "boolean operand " + op->to_string() + " has type " +
                        to_string(*t),
                    "as_bool() throws ExecError at evaluation time");
          }
        }
        return ValueType::kBool;
      }
      case ExprKind::kNot: {
        const auto t =
            infer(static_cast<const NotExpr&>(*e).operand(), schema, node);
        if (t.has_value() && *t != ValueType::kBool) {
          finding("check/predicate-type", Severity::kError, node,
                  "NOT operand has type " + to_string(*t),
                  "as_bool() throws ExecError at evaluation time");
        }
        return ValueType::kBool;
      }
    }
    return std::nullopt;
  }

  /// Check a select/join predicate root: resolvable, well-typed, bool.
  void check_predicate(const ExprPtr& pred, const Schema& schema,
                       const LogicalOp& node) {
    const auto t = infer(pred, schema, node);
    if (t.has_value() && *t != ValueType::kBool) {
      finding("check/predicate-type", Severity::kError, node,
              "predicate " + pred->to_string() + " has type " + to_string(*t) +
                  ", not bool",
              "matches() throws ExecError on the first row");
    }
  }

  /// Keep only the facts whose columns still resolve in `schema`.
  std::vector<ExprPtr> surviving_facts(const std::vector<ExprPtr>& facts,
                                       const Schema& schema) {
    std::vector<ExprPtr> out;
    for (const ExprPtr& f : facts) {
      bool ok = true;
      for (const std::string& c : columns_of(f)) {
        const SafeFind sf = safe_find(schema, c);
        if (sf.ambiguous || !sf.index.has_value()) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(f);
    }
    return out;
  }

  const Info& analyze(const PlanPtr& plan) {
    const auto hit = memo.find(plan.get());
    if (hit != memo.end()) return hit->second;

    Info info;
    switch (plan->kind()) {
      case OpKind::kScan:
        info = analyze_scan(static_cast<const ScanOp&>(*plan));
        break;
      case OpKind::kSelect:
        info = analyze_select(plan);
        break;
      case OpKind::kProject:
        info = analyze_project(plan);
        break;
      case OpKind::kJoin:
        info = analyze_join(plan);
        break;
      case OpKind::kAggregate:
        info = analyze_aggregate(plan);
        break;
    }

    NodeCheck nc;
    nc.node = plan.get();
    nc.label = plan->label();
    nc.rows = info.card;
    report.nodes.push_back(std::move(nc));
    return memo.emplace(plan.get(), std::move(info)).first->second;
  }

  Info analyze_scan(const ScanOp& scan) {
    Info info;
    info.card = {0, kInf};
    if (opts.database != nullptr && opts.database->has_table(scan.relation())) {
      const Table& table = opts.database->table(scan.relation());
      const double n = static_cast<double>(table.row_count());
      info.card = {n, n};
      // Execution is positional: the recorded schema's names may carry
      // source qualifiers the stored table lacks, but arity and types
      // must line up or every downstream value read is garbage.
      const Schema& recorded = scan.output_schema();
      const Schema& stored = table.schema();
      bool mismatch = recorded.size() != stored.size();
      for (std::size_t i = 0; !mismatch && i < recorded.size(); ++i) {
        mismatch = recorded.at(i).type != stored.at(i).type;
      }
      if (mismatch) {
        finding("check/scan-schema", Severity::kError, scan,
                "recorded schema " + recorded.to_string() +
                    " disagrees with stored table schema " +
                    stored.to_string() + " in arity or types",
                "rebuild the plan against the current catalog");
      }
    }
    return info;
  }

  Info analyze_select(const PlanPtr& plan) {
    const auto& sel = static_cast<const SelectOp&>(*plan);
    const Info& child = analyze(plan->children()[0]);
    const Schema& in = plan->children()[0]->output_schema();

    Info info;
    if (sel.predicate() == nullptr) {
      finding("check/predicate-type", Severity::kError, sel,
              "select has no predicate");
      info.card = {0, child.card.hi};
      info.facts = child.facts;
      return info;
    }
    check_predicate(sel.predicate(), in, sel);
    if (!(plan->output_schema() == in)) {
      finding("check/schema-consistent", Severity::kWarn, sel,
              "recorded output schema differs from the child schema",
              "selects are schema-preserving");
    }

    PredicateFacts facts(in);
    for (const ExprPtr& f : child.facts) facts.add(f);
    const bool below_contradictory = facts.contradictory();

    const bool taut = tautological(sel.predicate(), in);
    if (taut) {
      finding("check/tautology", Severity::kInfo, sel,
              "predicate " + sel.predicate()->to_string() + " is always true",
              "the select filters nothing and can be dropped");
    }
    bool all_entailed = true;
    for (const ExprPtr& c : conjuncts_of(sel.predicate())) {
      const bool entailed = facts.entails(c);
      if (entailed && !taut && !below_contradictory) {
        finding("check/redundant-conjunct", Severity::kInfo, sel,
                "conjunct " + c->to_string() +
                    " is already guaranteed by filters below");
      }
      all_entailed = all_entailed && entailed;
      facts.add(c);
    }
    if (facts.contradictory() && !below_contradictory) {
      finding("check/contradiction", Severity::kWarn, sel,
              "statically false predicate — the select emits no rows",
              "combined with enclosing filters: " +
                  (sel.predicate() ? sel.predicate()->to_string() : ""));
    }

    if (facts.contradictory()) {
      info.card = {0, 0};
    } else if (all_entailed) {
      info.card = child.card;
    } else {
      info.card = {0, child.card.hi};
    }
    info.facts = facts.conjuncts();
    return info;
  }

  Info analyze_project(const PlanPtr& plan) {
    const auto& proj = static_cast<const ProjectOp&>(*plan);
    const Info& child = analyze(plan->children()[0]);
    const Schema& in = plan->children()[0]->output_schema();

    for (const std::string& c : proj.columns()) {
      resolve(c, in, "check/projection-resolve", proj);
    }
    if (plan->output_schema().size() != proj.columns().size()) {
      finding("check/schema-consistent", Severity::kWarn, proj,
              "recorded output schema has " +
                  std::to_string(plan->output_schema().size()) +
                  " attributes for " + std::to_string(proj.columns().size()) +
                  " projected columns");
    }

    Info info;
    info.card = child.card;
    info.facts = surviving_facts(child.facts, plan->output_schema());
    return info;
  }

  Info analyze_join(const PlanPtr& plan) {
    const auto& join = static_cast<const JoinOp&>(*plan);
    const Info& l = analyze(plan->children()[0]);
    const Info& r = analyze(plan->children()[1]);
    const Schema combined =
        Schema::concat(plan->children()[0]->output_schema(),
                       plan->children()[1]->output_schema());

    if (!(plan->output_schema() == combined)) {
      finding("check/schema-consistent", Severity::kWarn, join,
              "recorded output schema is not the concatenation of the "
              "input schemas");
    }
    Info info;
    if (join.predicate() == nullptr) {
      finding("check/predicate-type", Severity::kError, join,
              "join has no predicate");
      info.card = {0, card_mul(l.card.hi, r.card.hi)};
      return info;
    }
    check_predicate(join.predicate(), combined, join);

    PredicateFacts facts(combined);
    for (const ExprPtr& f : l.facts) facts.add(f);
    for (const ExprPtr& f : r.facts) facts.add(f);
    const bool below_contradictory = facts.contradictory();
    for (const ExprPtr& c : conjuncts_of(join.predicate())) facts.add(c);
    if (facts.contradictory() && !below_contradictory) {
      finding("check/contradiction", Severity::kWarn, join,
              "statically false join predicate — the join emits no rows");
    }

    if (facts.contradictory()) {
      info.card = {0, 0};
    } else {
      info.card.hi = card_mul(l.card.hi, r.card.hi);
      info.card.lo = tautological(join.predicate(), combined)
                         ? card_mul(l.card.lo, r.card.lo)
                         : 0;
    }
    info.facts = facts.conjuncts();
    return info;
  }

  Info analyze_aggregate(const PlanPtr& plan) {
    const auto& agg = static_cast<const AggregateOp&>(*plan);
    const Info& child = analyze(plan->children()[0]);
    const Schema& in = plan->children()[0]->output_schema();

    for (const std::string& g : agg.group_by()) {
      resolve(g, in, "check/agg-resolve", agg);
    }
    for (const AggSpec& spec : agg.aggregates()) {
      if (spec.column.empty()) {
        if (spec.fn != AggFn::kCount) {
          finding("check/agg-resolve", Severity::kError, agg,
                  "aggregate '" + spec.alias + "' has no input column",
                  "only COUNT(*) takes no input");
        }
        continue;
      }
      const auto idx = resolve(spec.column, in, "check/agg-resolve", agg);
      if (!idx.has_value()) continue;
      const ValueType t = in.at(*idx).type;
      if ((spec.fn == AggFn::kSum || spec.fn == AggFn::kAvg ||
           spec.fn == AggFn::kSumInt) &&
          !is_numeric(t)) {
        finding("check/agg-input", Severity::kWarn, agg,
                "aggregate '" + spec.alias + "' sums " + to_string(t) +
                    " column '" + spec.column + "'",
                "non-numeric inputs are silently skipped by the accumulator");
      }
    }
    if (plan->output_schema().size() !=
        agg.group_by().size() + agg.aggregates().size()) {
      finding("check/schema-consistent", Severity::kWarn, agg,
              "recorded output schema arity does not match group-by plus "
              "aggregate count");
    }

    Info info;
    if (agg.group_by().empty()) {
      info.card = {1, 1};  // global aggregates emit the placeholder row
    } else {
      info.card = {child.card.lo > 0 ? 1.0 : 0.0, child.card.hi};
    }
    // Facts on group-by columns survive grouping.
    std::set<std::string> groups(agg.group_by().begin(), agg.group_by().end());
    std::vector<ExprPtr> grouped;
    for (const ExprPtr& f : child.facts) {
      bool ok = true;
      for (const std::string& c : columns_of(f)) {
        if (groups.find(c) == groups.end()) {
          ok = false;
          break;
        }
      }
      if (ok) grouped.push_back(f);
    }
    info.facts = surviving_facts(grouped, plan->output_schema());
    return info;
  }
};

}  // namespace

std::optional<CardInterval> CheckReport::card_of(
    const std::string& label) const {
  std::optional<CardInterval> hull;
  for (const NodeCheck& n : nodes) {
    if (n.label != label) continue;
    if (!hull.has_value()) {
      hull = n.rows;
    } else {
      hull->lo = std::min(hull->lo, n.rows.lo);
      hull->hi = std::max(hull->hi, n.rows.hi);
    }
  }
  return hull;
}

namespace {

std::string card_str(const CardInterval& c) {
  std::ostringstream os;
  os << "[" << c.lo << ", ";
  if (c.hi == kInf) {
    os << "inf";
  } else {
    os << c.hi;
  }
  os << "]";
  return os.str();
}

}  // namespace

std::string CheckReport::render_text() const {
  std::ostringstream os;
  os << "mvcheck: " << nodes.size() << " node(s), "
     << findings.count(Severity::kError) << " error(s), "
     << findings.count(Severity::kWarn) << " warning(s), "
     << findings.count(Severity::kInfo) << " info(s)\n";
  if (!findings.clean()) os << findings.render_text();
  os << "cardinality:\n";
  for (const NodeCheck& n : nodes) {
    os << "  " << n.label << "  " << card_str(n.rows) << "\n";
  }
  if (maintainability.has_value()) {
    os << "maintainability: " << to_string(maintainability->verdict);
    if (!maintainability->reason.empty()) {
      os << " (" << maintainability->reason << ")";
    }
    os << "\n";
  }
  if (refresh.has_value()) {
    os << "refresh path: " << to_string(refresh->path);
    if (!refresh->reason.empty()) os << " (" << refresh->reason << ")";
    os << "\n";
  }
  return os.str();
}

Json CheckReport::to_json() const {
  Json j = Json::object();
  j.set("ok", Json::boolean(ok()));
  j.set("findings", findings.to_json());
  Json node_arr = Json::array();
  for (const NodeCheck& n : nodes) {
    Json nj = Json::object();
    nj.set("label", Json::string(n.label));
    nj.set("rows_lo", Json::number(n.rows.lo));
    nj.set("rows_hi",
           n.rows.hi == kInf ? Json::null() : Json::number(n.rows.hi));
    node_arr.push_back(std::move(nj));
  }
  j.set("nodes", std::move(node_arr));
  if (maintainability.has_value()) {
    Json mj = Json::object();
    mj.set("verdict", Json::string(to_string(maintainability->verdict)));
    mj.set("reason", Json::string(maintainability->reason));
    j.set("maintainability", std::move(mj));
  } else {
    j.set("maintainability", Json::null());
  }
  if (refresh.has_value()) {
    Json rj = Json::object();
    rj.set("path", Json::string(to_string(refresh->path)));
    rj.set("reason", Json::string(refresh->reason));
    j.set("refresh", std::move(rj));
  } else {
    j.set("refresh", Json::null());
  }
  return j;
}

CheckReport check_plan(const PlanPtr& plan, const CheckOptions& options) {
  CheckReport report;
  report.root = plan;
  Analyzer analyzer{options, report, {}};
  analyzer.analyze(plan);
  if (options.maintainability) {
    try {
      report.maintainability = certify_refresh_plan(plan);
    } catch (const Error&) {
      report.maintainability.reset();
    }
    if (options.deltas != nullptr) {
      try {
        report.refresh = predict_refresh_path(plan, *options.deltas,
                                              options.database,
                                              options.view_name);
      } catch (const Error&) {
        report.refresh.reset();
      }
    }
  }
  return report;
}

namespace {

std::optional<CheckHookLevel>& check_override() {
  static std::optional<CheckHookLevel> value;
  return value;
}

CheckHookLevel parse_check_level(const char* text) {
  if (text == nullptr || *text == '\0') return CheckHookLevel::kOff;
  if (equals_icase(text, "error")) return CheckHookLevel::kError;
  if (equals_icase(text, "warn") || equals_icase(text, "warning")) {
    return CheckHookLevel::kWarn;
  }
  return CheckHookLevel::kOff;  // including explicit "off"
}

}  // namespace

CheckHookLevel check_hook_level() {
  if (check_override().has_value()) return *check_override();
  // Re-read per call so tests can flip the level; one getenv is the whole
  // cost of disabled hooks.
  if (const char* env = std::getenv("MVD_CHECK")) return parse_check_level(env);
  return CheckHookLevel::kOff;
}

void set_check_hook_level(std::optional<CheckHookLevel> level) {
  check_override() = level;
}

void check_stage_hook(const char* stage, const PlanPtr& plan,
                      const Database* database) {
  const CheckHookLevel level = check_hook_level();
  if (level == CheckHookLevel::kOff) return;
  CheckOptions opts;
  opts.database = database;
  opts.maintainability = false;
  const CheckReport report = check_plan(plan, opts);
  if (report.findings.clean()) return;
  const LintReport visible = report.findings.filtered(Severity::kWarn);
  if (!visible.clean()) {
    std::cerr << "mvcheck[" << stage << "]:\n" << visible.render_text();
  }
  if (level == CheckHookLevel::kError && report.findings.has_errors()) {
    for (const Diagnostic& d : report.findings.diagnostics()) {
      if (d.severity != Severity::kError) continue;
      const std::string message = std::string("mvcheck[") + stage + "] " +
                                  d.rule + " on " + d.subject + ": " +
                                  d.message;
      // Match the exception class the runtime would raise so callers'
      // error handling (and the test suite's EXPECT_THROW assertions)
      // see the same taxonomy with or without the hook.
      if (d.rule.find("resolve") != std::string::npos) throw BindError(message);
      throw ExecError(message);
    }
  }
}

}  // namespace mvd
