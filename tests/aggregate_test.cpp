// Tests for aggregation (GROUP BY + COUNT/SUM/MIN/MAX/AVG) across the
// stack: algebra construction, SQL parsing, cost estimation, execution,
// and aggregate views in the MVPP — the paper's "future work" extension.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/exec/executor.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

class AggregateAlgebraTest : public ::testing::Test {
 protected:
  Catalog catalog_ = make_paper_catalog();
};

TEST_F(AggregateAlgebraTest, SchemaGroupsFirstThenAggregates) {
  const PlanPtr plan = make_aggregate(
      make_scan(catalog_, "Order"), {"Cid"},
      {AggSpec{AggFn::kSum, "quantity", ""},
       AggSpec{AggFn::kCount, "", ""}});
  const Schema& s = plan->output_schema();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.at(0).qualified(), "Order.Cid");
  EXPECT_EQ(s.at(1).name, "sum_quantity");
  EXPECT_EQ(s.at(1).type, ValueType::kDouble);
  EXPECT_EQ(s.at(2).name, "count_all");
  EXPECT_EQ(s.at(2).type, ValueType::kInt64);
}

TEST_F(AggregateAlgebraTest, MinMaxKeepInputType) {
  const PlanPtr plan = make_aggregate(
      make_scan(catalog_, "Customer"), {},
      {AggSpec{AggFn::kMin, "name", ""}, AggSpec{AggFn::kMax, "Cid", ""}});
  EXPECT_EQ(plan->output_schema().at(0).type, ValueType::kString);
  EXPECT_EQ(plan->output_schema().at(1).type, ValueType::kInt64);
}

TEST_F(AggregateAlgebraTest, Validation) {
  const PlanPtr scan = make_scan(catalog_, "Order");
  EXPECT_THROW(make_aggregate(scan, {"Cid"}, {}), PlanError);
  EXPECT_THROW(make_aggregate(scan, {"Cid", "Order.Cid"},
                              {AggSpec{AggFn::kCount, "", ""}}),
               PlanError);
  EXPECT_THROW(make_aggregate(scan, {},
                              {AggSpec{AggFn::kSum, "quantity", "x"},
                               AggSpec{AggFn::kCount, "", "x"}}),
               PlanError);
  EXPECT_THROW(make_aggregate(scan, {}, {AggSpec{AggFn::kSum, "nope", ""}}),
               BindError);
  // SUM over a string column is rejected.
  EXPECT_THROW(make_aggregate(make_scan(catalog_, "Customer"), {},
                              {AggSpec{AggFn::kSum, "name", ""}}),
               PlanError);
}

TEST_F(AggregateAlgebraTest, SignatureStableUnderOrdering) {
  const PlanPtr a = make_aggregate(
      make_scan(catalog_, "Order"), {"Cid"},
      {AggSpec{AggFn::kSum, "quantity", ""}, AggSpec{AggFn::kCount, "", ""}});
  const PlanPtr b = make_aggregate(
      make_scan(catalog_, "Order"), {"Cid"},
      {AggSpec{AggFn::kSum, "quantity", ""}, AggSpec{AggFn::kCount, "", ""}});
  EXPECT_EQ(signature(a), signature(b));
  const PlanPtr c = make_aggregate(make_scan(catalog_, "Order"), {"Cid"},
                                   {AggSpec{AggFn::kMax, "quantity", ""}});
  EXPECT_NE(signature(a), signature(c));
}

TEST(AggregateParserTest, ParsesFunctionsAliasesAndGroupBy) {
  const ParsedQuery q = parse_query(
      "SELECT Customer.city, COUNT(*), SUM(quantity) AS total, "
      "AVG(quantity), MIN(date), MAX(date) "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY Customer.city");
  EXPECT_EQ(q.select_list, std::vector<std::string>{"Customer.city"});
  ASSERT_EQ(q.aggregates.size(), 5u);
  EXPECT_EQ(q.aggregates[0].fn, AggFn::kCount);
  EXPECT_TRUE(q.aggregates[0].column.empty());
  EXPECT_EQ(q.aggregates[1].fn, AggFn::kSum);
  EXPECT_EQ(q.aggregates[1].alias, "total");
  EXPECT_EQ(q.aggregates[4].fn, AggFn::kMax);
  EXPECT_EQ(q.group_by, std::vector<std::string>{"Customer.city"});
}

TEST(AggregateParserTest, GlobalAggregateWithoutGroupBy) {
  const ParsedQuery q = parse_query("SELECT COUNT(*) FROM Product");
  EXPECT_TRUE(q.select_list.empty());
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_TRUE(q.group_by.empty());
}

TEST(AggregateParserTest, Rejections) {
  EXPECT_THROW(parse_query("SELECT SUM(*) FROM T"), ParseError);
  EXPECT_THROW(parse_query("SELECT name FROM T GROUP BY name"), ParseError);
  EXPECT_THROW(parse_query("SELECT COUNT( FROM T"), ParseError);
  EXPECT_THROW(parse_query("SELECT COUNT(x) AS FROM T"), ParseError);
}

TEST(AggregateParserTest, AggregateNamesStillUsableAsColumns) {
  // "count" not followed by '(' is a plain column name.
  const ParsedQuery q = parse_query("SELECT count FROM T");
  EXPECT_EQ(q.select_list, std::vector<std::string>{"count"});
}

class AggregateBindTest : public ::testing::Test {
 protected:
  Catalog catalog_ = make_paper_catalog();
};

TEST_F(AggregateBindTest, BindsGroupsAndInputs) {
  const QuerySpec q = parse_and_bind(
      catalog_, "A", 2.0,
      "SELECT city, SUM(quantity) FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY city");
  EXPECT_TRUE(q.has_aggregation());
  EXPECT_EQ(q.group_by(), std::vector<std::string>{"Customer.city"});
  ASSERT_EQ(q.aggregates().size(), 1u);
  EXPECT_EQ(q.aggregates()[0].column, "Order.quantity");
  // projection() = survivors up to the aggregate.
  EXPECT_EQ(q.projection(),
            (std::vector<std::string>{"Customer.city", "Order.quantity"}));
}

TEST_F(AggregateBindTest, SelectColumnsMustBeGrouped) {
  EXPECT_THROW(parse_and_bind(catalog_, "A", 1.0,
                              "SELECT name, COUNT(*) FROM Customer "
                              "GROUP BY city"),
               BindError);
  EXPECT_THROW(
      QuerySpec::bind(catalog_, "A", 1.0, {"Customer"}, nullptr, {"city"},
                      {"city"}, {}),
      BindError);  // GROUP BY without aggregates
  EXPECT_THROW(parse_and_bind(catalog_, "A", 1.0,
                              "SELECT * FROM Customer GROUP BY city"),
               ParseError);  // * has no aggregates -> GROUP BY rejected
}

TEST_F(AggregateBindTest, ToStringShowsAggregates) {
  const QuerySpec q = parse_and_bind(
      catalog_, "A", 1.0,
      "SELECT city, COUNT(*) FROM Customer GROUP BY city");
  EXPECT_NE(q.to_string().find("count(*)"), std::string::npos);
  EXPECT_NE(q.to_string().find("GROUP BY Customer.city"), std::string::npos);
}

class AggregateCostTest : public ::testing::Test {
 protected:
  AggregateCostTest()
      : catalog_(make_paper_catalog()),
        model_(catalog_, paper_cost_config()) {}
  Catalog catalog_;
  CostModel model_;
};

TEST_F(AggregateCostTest, GroupCountBoundsCardinality) {
  // Grouping customers by city: 100 distinct cities.
  const PlanPtr plan = make_aggregate(make_scan(catalog_, "Customer"),
                                      {"city"},
                                      {AggSpec{AggFn::kCount, "", ""}});
  const NodeEstimate e = model_.estimate(plan);
  EXPECT_DOUBLE_EQ(e.rows, 100);
  EXPECT_LT(e.blocks, model_.estimate(make_scan(catalog_, "Customer")).blocks);
}

TEST_F(AggregateCostTest, GlobalAggregateIsOneRow) {
  const PlanPtr plan = make_aggregate(make_scan(catalog_, "Order"), {},
                                      {AggSpec{AggFn::kCount, "", ""}});
  EXPECT_DOUBLE_EQ(model_.estimate(plan).rows, 1);
}

TEST_F(AggregateCostTest, OpCostIsOneInputScan) {
  const PlanPtr plan = make_aggregate(make_scan(catalog_, "Order"), {"Cid"},
                                      {AggSpec{AggFn::kSum, "quantity", ""}});
  EXPECT_DOUBLE_EQ(model_.op_cost(plan), 6'000);
  EXPECT_DOUBLE_EQ(model_.full_cost(plan), 6'000);
}

class AggregateExecTest : public ::testing::Test {
 protected:
  AggregateExecTest() {
    Table t(Schema({{"k", ValueType::kString, "T"},
                    {"v", ValueType::kInt64, "T"}}),
            10.0);
    t.append({Value::string("a"), Value::int64(1)});
    t.append({Value::string("a"), Value::int64(3)});
    t.append({Value::string("b"), Value::int64(5)});
    db_.add_table("T", std::move(t));
    catalog_.add_relation("T", db_.table("T").schema(),
                          db_.table("T").compute_stats());
  }

  Database db_;
  Catalog catalog_{10.0};
};

TEST_F(AggregateExecTest, GroupedAggregation) {
  const Executor exec(db_);
  const Table r = exec.run(make_aggregate(
      make_scan(catalog_, "T"), {"k"},
      {AggSpec{AggFn::kCount, "", ""}, AggSpec{AggFn::kSum, "v", ""},
       AggSpec{AggFn::kMin, "v", ""}, AggSpec{AggFn::kMax, "v", ""},
       AggSpec{AggFn::kAvg, "v", ""}}));
  ASSERT_EQ(r.row_count(), 2u);
  // Groups come out keyed; find them.
  for (const Tuple& row : r.rows()) {
    if (row[0].as_string() == "a") {
      EXPECT_EQ(row[1].as_int64(), 2);
      EXPECT_DOUBLE_EQ(row[2].as_double(), 4.0);
      EXPECT_EQ(row[3].as_int64(), 1);
      EXPECT_EQ(row[4].as_int64(), 3);
      EXPECT_DOUBLE_EQ(row[5].as_double(), 2.0);
    } else {
      EXPECT_EQ(row[0].as_string(), "b");
      EXPECT_EQ(row[1].as_int64(), 1);
      EXPECT_DOUBLE_EQ(row[2].as_double(), 5.0);
    }
  }
}

TEST_F(AggregateExecTest, GlobalAggregateOverEmptyInput) {
  const Executor exec(db_);
  const Table r = exec.run(make_aggregate(
      make_select(make_scan(catalog_, "T"), eq(col("v"), lit_i64(999))), {},
      {AggSpec{AggFn::kCount, "", ""}, AggSpec{AggFn::kSum, "v", ""}}));
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.row(0)[0].as_int64(), 0);
  EXPECT_DOUBLE_EQ(r.row(0)[1].as_double(), 0.0);
}

// The empty-input row of a global MIN/MAX holds a zero of each column's
// type, the same value on both engines (an untyped int64 zero made the
// row engine throw on double and bool columns and disagree on dates).
TEST(AggregateEmptyInputTest, GlobalMinMaxPlaceholderIsTypedOnEveryEngine) {
  Table t(Schema({{"k", ValueType::kInt64, "T"},
                  {"d", ValueType::kDouble, "T"},
                  {"t", ValueType::kDate, "T"},
                  {"b", ValueType::kBool, "T"},
                  {"s", ValueType::kString, "T"}}),
          10.0);
  t.append({Value::int64(1), Value::real(2.5), Value::date(100),
            Value::boolean(true), Value::string("x")});
  Database db;
  db.add_table("T", std::move(t));
  Catalog catalog(10.0);
  catalog.add_relation("T", db.table("T").schema(),
                       db.table("T").compute_stats());
  std::vector<AggSpec> specs;
  for (const char* c : {"k", "d", "t", "b", "s"}) {
    specs.push_back({AggFn::kMin, c, ""});
    specs.push_back({AggFn::kMax, c, ""});
  }
  const PlanPtr plan = make_aggregate(
      make_select(make_scan(catalog, "T"), eq(col("k"), lit_i64(999))), {},
      specs);
  const Tuple zeros = {Value::int64(0),      Value::int64(0),
                       Value::real(0),       Value::real(0),
                       Value::date(0),       Value::date(0),
                       Value::boolean(false), Value::boolean(false),
                       Value::string(""),    Value::string("")};
  for (const ExecMode mode : {ExecMode::kRow, ExecMode::kVectorized}) {
    const Table r = Executor(db, mode, 1).run(plan);
    ASSERT_EQ(r.row_count(), 1u) << exec_mode_name(mode);
    for (std::size_t i = 0; i < zeros.size(); ++i) {
      EXPECT_TRUE(r.row(0)[i].identical(zeros[i]))
          << exec_mode_name(mode) << " column " << i << ": "
          << r.row(0)[i].to_string();
    }
  }
}

TEST_F(AggregateExecTest, GroupedOverEmptyInputIsEmpty) {
  const Executor exec(db_);
  const Table r = exec.run(make_aggregate(
      make_select(make_scan(catalog_, "T"), eq(col("v"), lit_i64(999))),
      {"k"}, {AggSpec{AggFn::kCount, "", ""}}));
  EXPECT_EQ(r.row_count(), 0u);
}

// End-to-end: an aggregation workload through the designer — aggregate
// views materialize, deploy, answer and refresh correctly.
class AggregateMvppTest : public ::testing::Test {
 protected:
  AggregateMvppTest() {
    db_ = populate_paper_database(0.02, 31);
    DesignerOptions options;
    options.cost = paper_cost_config();
  }
  Database db_;
};

TEST_F(AggregateMvppTest, AggregateQueriesDesignDeployAnswer) {
  WarehouseDesigner designer(make_paper_catalog(), [] {
    DesignerOptions o;
    o.cost = paper_cost_config();
    return o;
  }());
  designer.add_query(
      "sales_by_city", 8.0,
      "SELECT city, SUM(quantity) AS total, COUNT(*) AS orders "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY city");
  designer.add_query(
      "big_orders", 2.0,
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  designer.add_query("order_count", 1.0, "SELECT COUNT(*) FROM Order");

  const DesignResult design = designer.design();
  design.graph().validate();

  // The aggregate node exists and shares the Order |x| Customer join with
  // the SPJ query.
  bool has_aggregate_node = false;
  for (const MvppNode& n : design.graph().nodes()) {
    if (n.kind == MvppNodeKind::kAggregate) has_aggregate_node = true;
  }
  EXPECT_TRUE(has_aggregate_node);

  designer.deploy(design, db_);
  const Executor exec(db_);
  for (const QuerySpec& q : designer.queries()) {
    const Table got = designer.answer(design, q.name(), db_);
    const Table expected = exec.run(canonical_plan(designer.catalog(), q));
    EXPECT_TRUE(same_bag(expected, got)) << q.name();
  }
  // Aggregate results have the declared output shape.
  const Table by_city = designer.answer(design, "sales_by_city", db_);
  ASSERT_EQ(by_city.schema().size(), 3u);
  EXPECT_EQ(by_city.schema().at(1).name, "total");
}

TEST_F(AggregateMvppTest, MaterializedAggregateViewAnswersQueries) {
  // Force-materialize the aggregate node itself and check answers come
  // from the stored view.
  const Catalog catalog = make_paper_catalog();
  const CostModel model(catalog, paper_cost_config());
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  const QuerySpec agg = parse_and_bind(
      catalog, "A", 5.0,
      "SELECT city, AVG(quantity) FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY city");
  const MvppBuildResult built = builder.build({agg}, {0});
  const MvppGraph& g = built.graph;

  NodeId agg_node = -1;
  for (const MvppNode& n : g.nodes()) {
    if (n.kind == MvppNodeKind::kAggregate) agg_node = n.id;
  }
  ASSERT_GE(agg_node, 0);

  const MaterializedSet m{agg_node};
  const Executor exec(db_);
  Database db = db_;
  db.put_table(g.node(agg_node).name, exec.run(refresh_plan(g, agg_node, {})));
  const Executor exec2(db);
  const NodeId root = g.find_by_name("A");
  const Table from_view = exec2.run(answer_plan(g, root, m));
  const Table from_scratch = exec2.run(answer_plan(g, root, {}));
  EXPECT_TRUE(same_bag(from_view, from_scratch));

  // The answer plan with the view materialized is a bare scan.
  EXPECT_EQ(answer_plan(g, root, m)->kind(), OpKind::kScan);

  // And the evaluator prices reading it at its block count.
  const MvppEvaluator eval(g);
  EXPECT_DOUBLE_EQ(eval.answer_cost(root, m), g.node(agg_node).blocks);
  EXPECT_LT(eval.answer_cost(root, m), eval.answer_cost(root, {}));
}

}  // namespace
}  // namespace mvd
