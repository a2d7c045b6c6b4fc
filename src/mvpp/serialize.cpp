#include "src/mvpp/serialize.hpp"

#include <cstdio>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/sql/parser.hpp"
#include "src/storage/value.hpp"

namespace mvd {

namespace {

std::string value_to_sql(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return std::to_string(v.as_int64());
    case ValueType::kDouble:
      return v.to_string();  // exact, and a literal the lexer reads back
    case ValueType::kString: {
      std::string out = "'";
      for (char c : v.as_string()) {
        out += c;
        if (c == '\'') out += '\'';  // SQL doubling escape
      }
      out += '\'';
      return out;
    }
    case ValueType::kBool:
      return v.as_bool() ? "TRUE" : "FALSE";
    case ValueType::kDate: {
      int year = 0, month = 0, day = 0;
      Value::civil_from_days(v.as_int64(), year, month, day);
      char buf[32];
      std::snprintf(buf, sizeof buf, "DATE '%04d-%02d-%02d'", year, month,
                    day);
      return buf;
    }
  }
  MVD_ASSERT(false);
  return {};
}

}  // namespace

std::string expr_to_sql(const ExprPtr& expr) {
  MVD_ASSERT(expr != nullptr);
  switch (expr->kind()) {
    case ExprKind::kColumn:
      return static_cast<const ColumnExpr&>(*expr).name();
    case ExprKind::kLiteral:
      return value_to_sql(static_cast<const LiteralExpr&>(*expr).value());
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(*expr);
      std::string out = "(";
      out += expr_to_sql(cmp.lhs());
      out += ' ';
      out += to_string(cmp.op());
      out += ' ';
      out += expr_to_sql(cmp.rhs());
      out += ')';
      return out;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& b = static_cast<const BoolExpr&>(*expr);
      const char* glue = expr->kind() == ExprKind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (std::size_t i = 0; i < b.operands().size(); ++i) {
        if (i != 0) out += glue;
        out += expr_to_sql(b.operands()[i]);
      }
      out += ")";
      return out;
    }
    case ExprKind::kNot:
      return "(NOT " +
             expr_to_sql(static_cast<const NotExpr&>(*expr).operand()) + ")";
  }
  MVD_ASSERT(false);
  return {};
}

Json to_json(const MvppGraph& graph) {
  Json nodes = Json::array();
  for (const MvppNode& n : graph.nodes()) {
    Json j = Json::object();
    j.set("id", Json::number(static_cast<double>(n.id)));
    j.set("kind", Json::string(to_string(n.kind)));
    j.set("name", Json::string(n.name));
    switch (n.kind) {
      case MvppNodeKind::kBase:
        j.set("relation", Json::string(n.relation));
        j.set("update_frequency", Json::number(n.frequency));
        break;
      case MvppNodeKind::kSelect:
      case MvppNodeKind::kJoin:
        j.set("predicate", Json::string(n.predicate->to_string()));
        j.set("predicate_sql", Json::string(expr_to_sql(n.predicate)));
        break;
      case MvppNodeKind::kProject: {
        Json cols = Json::array();
        for (const std::string& c : n.columns) cols.push_back(Json::string(c));
        j.set("columns", std::move(cols));
        break;
      }
      case MvppNodeKind::kAggregate: {
        Json groups = Json::array();
        for (const std::string& c : n.columns) {
          groups.push_back(Json::string(c));
        }
        j.set("group_by", std::move(groups));
        Json aggs = Json::array();
        for (const AggSpec& a : n.aggregates) {
          aggs.push_back(Json::string(a.to_string()));
        }
        j.set("aggregates", std::move(aggs));
        Json specs = Json::array();
        for (const AggSpec& a : n.aggregates) {
          Json spec = Json::object();
          spec.set("fn", Json::string(to_string(a.fn)));
          spec.set("column", Json::string(a.column));
          spec.set("alias", Json::string(a.alias));
          specs.push_back(std::move(spec));
        }
        j.set("aggregate_specs", std::move(specs));
        break;
      }
      case MvppNodeKind::kQuery:
        j.set("query_frequency", Json::number(n.frequency));
        break;
    }
    Json children = Json::array();
    for (NodeId c : n.children) {
      children.push_back(Json::number(static_cast<double>(c)));
    }
    j.set("children", std::move(children));
    if (graph.annotated() && n.kind != MvppNodeKind::kQuery) {
      j.set("rows", Json::number(n.rows));
      j.set("blocks", Json::number(n.blocks));
      if (n.is_operation()) {
        j.set("op_cost", Json::number(n.op_cost));
        j.set("full_cost", Json::number(n.full_cost));
      }
    }
    nodes.push_back(std::move(j));
  }
  Json out = Json::object();
  out.set("annotated", Json::boolean(graph.annotated()));
  out.set("nodes", std::move(nodes));
  return out;
}

Json to_json(const MvppGraph& graph, const SelectionResult& selection) {
  Json out = Json::object();
  out.set("algorithm", Json::string(selection.algorithm));
  Json views = Json::array();
  for (NodeId v : selection.materialized) {
    views.push_back(Json::string(graph.node(v).name));
  }
  out.set("materialized", std::move(views));
  Json costs = Json::object();
  costs.set("query_processing", Json::number(selection.costs.query_processing));
  costs.set("maintenance", Json::number(selection.costs.maintenance));
  costs.set("total", Json::number(selection.costs.total()));
  out.set("costs", std::move(costs));
  Json trace = Json::array();
  for (const std::string& line : selection.trace) {
    trace.push_back(Json::string(line));
  }
  out.set("trace", std::move(trace));
  return out;
}

Json design_report_json(const MvppEvaluator& eval,
                        const SelectionResult& selection) {
  const MvppGraph& g = eval.graph();
  Json out = Json::object();
  out.set("selection", to_json(g, selection));

  Json queries = Json::array();
  for (NodeId q : g.query_ids()) {
    Json j = Json::object();
    j.set("name", Json::string(g.node(q).name));
    j.set("frequency", Json::number(g.node(q).frequency));
    j.set("answer_cost", Json::number(eval.answer_cost(q, selection.materialized)));
    j.set("answer_cost_all_virtual", Json::number(eval.answer_cost(q, {})));
    queries.push_back(std::move(j));
  }
  out.set("queries", std::move(queries));

  Json views = Json::array();
  for (NodeId v : selection.materialized) {
    Json j = Json::object();
    j.set("name", Json::string(g.node(v).name));
    j.set("blocks", Json::number(g.node(v).blocks));
    j.set("maintenance_cost",
          Json::number(eval.maintenance_cost(v, selection.materialized)));
    Json consumers = Json::array();
    for (NodeId q : g.queries_using(v)) {
      consumers.push_back(Json::string(g.node(q).name));
    }
    j.set("serves", std::move(consumers));
    views.push_back(std::move(j));
  }
  out.set("views", std::move(views));
  out.set("graph", to_json(g));
  return out;
}

namespace {

MvppNodeKind kind_from_string(const std::string& text) {
  for (MvppNodeKind k :
       {MvppNodeKind::kBase, MvppNodeKind::kSelect, MvppNodeKind::kProject,
        MvppNodeKind::kJoin, MvppNodeKind::kAggregate, MvppNodeKind::kQuery}) {
    if (to_string(k) == text) return k;
  }
  throw ParseError("unknown MVPP node kind '" + text + "'");
}

AggFn agg_fn_from_string(const std::string& text) {
  for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kMin, AggFn::kMax,
                   AggFn::kAvg, AggFn::kSumInt}) {
    if (to_string(fn) == text) return fn;
  }
  throw ParseError("unknown aggregate function '" + text + "'");
}

const Json& require(const Json& node, const std::string& key) {
  if (node.kind() != Json::Kind::kObject || !node.contains(key)) {
    throw ParseError("MVPP node record is missing field '" + key + "'");
  }
  return node.at(key);
}

std::vector<std::string> string_list(const Json& arr) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.push_back(arr.at(i).as_string());
  }
  return out;
}

}  // namespace

MvppGraph mvpp_from_json(const Json& doc, const Catalog& catalog,
                         const CostModel* cost_model) {
  if (doc.kind() != Json::Kind::kObject || !doc.contains("nodes")) {
    throw ParseError("not an MVPP document (missing \"nodes\")");
  }
  const Json& nodes = doc.at("nodes");
  MvppGraph g;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Json& j = nodes.at(i);
    const MvppNodeKind kind = kind_from_string(require(j, "kind").as_string());
    const NodeId recorded = static_cast<NodeId>(require(j, "id").as_number());
    const Json& children = require(j, "children");
    const auto child = [&](std::size_t slot) {
      if (slot >= children.size()) {
        throw ParseError(str_cat("node ", recorded, " needs child #", slot));
      }
      return static_cast<NodeId>(children.at(slot).as_number());
    };
    NodeId id = -1;
    switch (kind) {
      case MvppNodeKind::kBase: {
        const std::string relation = require(j, "relation").as_string();
        id = g.add_base(relation, catalog.schema(relation),
                        require(j, "update_frequency").as_number());
        break;
      }
      case MvppNodeKind::kSelect:
        id = g.add_select(child(0),
                          parse_predicate(require(j, "predicate_sql")
                                              .as_string()));
        break;
      case MvppNodeKind::kJoin:
        id = g.add_join(child(0), child(1),
                        parse_predicate(require(j, "predicate_sql")
                                            .as_string()));
        break;
      case MvppNodeKind::kProject:
        id = g.add_project(child(0), string_list(require(j, "columns")));
        break;
      case MvppNodeKind::kAggregate: {
        const Json& specs = require(j, "aggregate_specs");
        std::vector<AggSpec> aggs;
        for (std::size_t s = 0; s < specs.size(); ++s) {
          const Json& spec = specs.at(s);
          aggs.push_back({agg_fn_from_string(require(spec, "fn").as_string()),
                          require(spec, "column").as_string(),
                          require(spec, "alias").as_string()});
        }
        id = g.add_aggregate(child(0), string_list(require(j, "group_by")),
                             std::move(aggs));
        break;
      }
      case MvppNodeKind::kQuery:
        id = g.add_query(require(j, "name").as_string(),
                         require(j, "query_frequency").as_number(), child(0));
        break;
    }
    if (id != recorded) {
      throw ParseError(str_cat("node ids diverge on replay: record ", recorded,
                               " became ", id,
                               " (duplicate structure in the document?)"));
    }
    const std::string& name = require(j, "name").as_string();
    if (g.node(id).is_operation() && !name.empty()) g.set_name(id, name);
  }

  const bool annotated =
      doc.contains("annotated") && doc.at("annotated").as_bool();
  if (annotated && cost_model != nullptr) {
    g.annotate(*cost_model);
  } else if (annotated) {
    // Overlay the recorded annotation. Plan exprs are not rebuilt, so
    // expr-dependent lint rules skip; the numeric invariants (and cost
    // evaluation) see exactly the saved values. Query roots inherit
    // their child's figures the same way annotate() computes them —
    // children precede parents, so one forward pass suffices.
    MvppGraphMutator mut(g);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Json& j = nodes.at(i);
      MvppNode& n = mut.node(static_cast<NodeId>(i));
      if (n.kind == MvppNodeKind::kQuery) {
        const MvppNode& c = g.node(n.children[0]);
        n.rows = c.rows;
        n.blocks = c.blocks;
        n.full_cost = c.full_cost;
        continue;
      }
      n.rows = require(j, "rows").as_number();
      n.blocks = require(j, "blocks").as_number();
      if (n.is_operation()) {
        n.op_cost = require(j, "op_cost").as_number();
        n.full_cost = require(j, "full_cost").as_number();
      }
    }
    mut.mark_annotated(true);
  }
  g.validate();
  return g;
}

}  // namespace mvd
