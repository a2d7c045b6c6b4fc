// JSON round-trips: Json::parse inverts Json::dump exactly, expr_to_sql
// inverts through the SQL parser, and mvpp_from_json rebuilds a graph
// to_json serialized — same ids, names, signatures, and (re-annotated or
// overlaid) the same costs to the last bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/algebra/expr.hpp"
#include "src/common/error.hpp"
#include "src/lint/lint.hpp"
#include "src/mvpp/serialize.hpp"
#include "src/sql/parser.hpp"
#include "src/storage/value.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

// ---- Json::parse -----------------------------------------------------

TEST(JsonParseTest, ScalarsAndNesting) {
  const Json j = Json::parse(
      R"({"a": 1, "b": -2.5, "c": "x\ny", "d": [true, false, null], "e": {}})");
  EXPECT_EQ(j.at("a").as_number(), 1);
  EXPECT_EQ(j.at("b").as_number(), -2.5);
  EXPECT_EQ(j.at("c").as_string(), "x\ny");
  EXPECT_TRUE(j.at("d").at(0).as_bool());
  EXPECT_FALSE(j.at("d").at(1).as_bool());
  EXPECT_EQ(j.at("d").at(2).kind(), Json::Kind::kNull);
  EXPECT_EQ(j.at("e").size(), 0u);
}

TEST(JsonParseTest, UnicodeEscapesAndExponents) {
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(Json::parse("1e3").as_number(), 1000);
  EXPECT_EQ(Json::parse("-1.25e-2").as_number(), -0.0125);
}

TEST(JsonParseTest, MalformedInputThrows) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("nul"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
}

TEST(JsonParseTest, DumpParseRoundTripsExactDoubles) {
  // Values iostream precision-12 would have mangled.
  for (double v : {1.0 / 3.0, 2.5, 1e-17, 123456789.123456789, 0.1}) {
    Json j = Json::object();
    j.set("v", Json::number(v));
    for (int indent : {0, 2}) {
      const Json back = Json::parse(j.dump(indent));
      EXPECT_EQ(back.at("v").as_number(), v) << "indent " << indent;
    }
  }
  // json_test's integer expectations stay intact.
  EXPECT_EQ(Json::number(42.0).dump(), "42");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
}

// ---- expr_to_sql -----------------------------------------------------

TEST(ExprToSqlTest, RoundTripsThroughTheParser) {
  const std::vector<ExprPtr> cases = {
      eq(col("Division.city"), lit_str("LA")),
      gt(col("Order.quantity"), lit_i64(100)),
      gt(col("Order.date"), lit(Value::date_ymd(1996, 7, 1))),
      conj({eq(col("a"), lit_i64(1)), lt(col("b"), lit_real(2.5))}),
      disj({eq(col("city"), lit_str("LA")), eq(col("city"), lit_str("SF"))}),
      neg(eq(col("x"), lit_str("it's"))),
      cmp(CompareOp::kNe, col("x"), lit_i64(7)),
      // Doubles whose shortest text would be scientific.
      gt(col("Fact.amount"), lit_real(0.00001)),
      lt(col("Fact.amount"), lit_real(2.5e-7)),
      // Negative literals (an MVPP predicate_sql may hold them).
      gt(col("Order.quantity"), lit_i64(-5)),
      lt(col("Fact.amount"), lit_real(-2.5e-7)),
      eq(col("x"), lit_i64(std::numeric_limits<std::int64_t>::min())),
      disj({lt(col("a"), lit_real(-2.5)), neg(eq(col("b"), lit_i64(-1)))}),
  };
  for (const ExprPtr& e : cases) {
    const std::string sql = expr_to_sql(e);
    const ExprPtr back = parse_predicate(sql);
    EXPECT_TRUE(expr_equal(normalize(e), normalize(back)))
        << sql << " reparsed as " << back->to_string();
  }
}

TEST(ExprToSqlTest, DatesCarryTheDateKeyword) {
  const std::string sql =
      expr_to_sql(gt(col("Order.date"), lit(Value::date_ymd(1996, 7, 1))));
  EXPECT_NE(sql.find("DATE '1996-07-01'"), std::string::npos) << sql;
}

// ---- mvpp_from_json --------------------------------------------------

class MvppRoundTripTest : public ::testing::Test {
 protected:
  MvppRoundTripTest()
      : catalog_(make_paper_catalog()),
        cost_model_(catalog_, paper_cost_config()),
        graph_(build_figure3_mvpp(cost_model_)) {}

  static void expect_same_structure(const MvppGraph& a, const MvppGraph& b) {
    ASSERT_EQ(a.size(), b.size());
    for (NodeId v = 0; v < static_cast<NodeId>(a.size()); ++v) {
      const MvppNode& na = a.node(v);
      const MvppNode& nb = b.node(v);
      EXPECT_EQ(na.kind, nb.kind) << na.name;
      EXPECT_EQ(na.name, nb.name);
      EXPECT_EQ(na.sig, nb.sig) << na.name;
      EXPECT_EQ(na.children, nb.children) << na.name;
      EXPECT_EQ(na.parents, nb.parents) << na.name;
      EXPECT_EQ(na.frequency, nb.frequency) << na.name;
    }
  }

  static void expect_same_annotation(const MvppGraph& a, const MvppGraph& b) {
    for (NodeId v = 0; v < static_cast<NodeId>(a.size()); ++v) {
      const MvppNode& na = a.node(v);
      const MvppNode& nb = b.node(v);
      EXPECT_EQ(na.rows, nb.rows) << na.name;
      EXPECT_EQ(na.blocks, nb.blocks) << na.name;
      EXPECT_EQ(na.op_cost, nb.op_cost) << na.name;
      EXPECT_EQ(na.full_cost, nb.full_cost) << na.name;
    }
  }

  Catalog catalog_;
  CostModel cost_model_;
  MvppGraph graph_;
};

TEST_F(MvppRoundTripTest, ReannotatedReloadIsBitIdentical) {
  const std::string text = to_json(graph_).dump(2);
  const MvppGraph back =
      mvpp_from_json(Json::parse(text), catalog_, &cost_model_);
  expect_same_structure(graph_, back);
  ASSERT_TRUE(back.annotated());
  expect_same_annotation(graph_, back);

  // The reloaded graph evaluates identically.
  const MvppEvaluator original(graph_);
  const MvppEvaluator reloaded(back);
  const SelectionResult best = yang_heuristic(original);
  EXPECT_EQ(reloaded.evaluate(best.materialized).total(), best.costs.total());
}

TEST_F(MvppRoundTripTest, OverlayReloadKeepsRecordedCostsAndLintsClean) {
  const MvppGraph back = mvpp_from_json(to_json(graph_), catalog_);
  expect_same_structure(graph_, back);
  ASSERT_TRUE(back.annotated());
  expect_same_annotation(graph_, back);

  // Without plan exprs the schema/estimate rules skip; everything else
  // must hold on the overlay.
  const GraphClosures closures(back);
  const LintReport report = lint_graph(back, &closures, &cost_model_);
  EXPECT_TRUE(report.clean()) << report.render_text();
}

TEST_F(MvppRoundTripTest, UnannotatedGraphsRoundTripToo) {
  // Hand-built structure, never annotated: serialization carries no
  // rows/blocks fields and the loader leaves the copy unannotated.
  MvppGraph g;
  const NodeId division =
      g.add_base("Division", catalog_.schema("Division"), 2.0);
  const NodeId la = g.add_select(division, eq(col("city"), lit_str("LA")));
  const NodeId names = g.add_project(la, {"Division.name"});
  g.add_query("QNames", 4.0, names);

  const MvppGraph back = mvpp_from_json(to_json(g), catalog_);
  expect_same_structure(g, back);
  EXPECT_FALSE(back.annotated());
}

TEST_F(MvppRoundTripTest, MalformedDocumentsThrow) {
  EXPECT_THROW(mvpp_from_json(Json::array(), catalog_), ParseError);
  Json doc = Json::object();
  doc.set("annotated", Json::boolean(false));
  EXPECT_THROW(mvpp_from_json(doc, catalog_), ParseError);

  // Unknown relation name: rebuild the document with the first base
  // renamed.
  const Json good = to_json(graph_);
  Json first = good.at("nodes").at(0);
  first.set("relation", Json::string("NoSuchRelation"));
  Json rebuilt = Json::array();
  rebuilt.push_back(std::move(first));
  for (std::size_t i = 1; i < good.at("nodes").size(); ++i) {
    rebuilt.push_back(good.at("nodes").at(i));
  }
  Json broken = Json::object();
  broken.set("annotated", good.at("annotated"));
  broken.set("nodes", std::move(rebuilt));
  EXPECT_THROW(mvpp_from_json(broken, catalog_), CatalogError);
}

}  // namespace
}  // namespace mvd
