// Tests for src/cost: selectivity estimation, cardinality propagation,
// block accounting, operator costing — pinned against the paper's Table 1
// derived quantities where the paper states them.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/cost/cost_model.hpp"
#include "src/sql/parser.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() : catalog_(make_paper_catalog()),
                    model_(catalog_, paper_cost_config()) {}

  PlanPtr scan(const std::string& rel) { return make_scan(catalog_, rel); }

  double selectivity(const std::string& rel, const std::string& pred) {
    const PlanPtr s = scan(rel);
    return model_.selectivity(
        bind_expr(parse_predicate(pred), s->output_schema()),
        model_.estimate(s));
  }

  Catalog catalog_;
  CostModel model_;
};

TEST_F(CostModelTest, ScanEstimateMatchesCatalog) {
  const NodeEstimate e = model_.estimate(scan("Product"));
  EXPECT_DOUBLE_EQ(e.rows, 30'000);
  EXPECT_DOUBLE_EQ(e.blocks, 3'000);
  EXPECT_EQ(e.bases, std::set<std::string>{"Product"});
  EXPECT_DOUBLE_EQ(e.distinct_of("Product.Did", 0), 5'000);
}

TEST_F(CostModelTest, EqualitySelectivityFromDistinct) {
  // Division.city has 50 distinct values -> paper's s = 0.02.
  EXPECT_DOUBLE_EQ(selectivity("Division", "city = 'LA'"), 0.02);
}

TEST_F(CostModelTest, RangeSelectivityInterpolates) {
  // quantity uniform on [1, 200]: > 100 is about half.
  EXPECT_NEAR(selectivity("Order", "quantity > 100"), 0.5, 0.01);
  EXPECT_NEAR(selectivity("Order", "quantity > 150"), 0.25, 0.01);
  EXPECT_NEAR(selectivity("Order", "quantity < 1"), 0.0, 0.01);
  EXPECT_NEAR(selectivity("Order", "quantity > 200"), 0.0, 0.01);
  // Out-of-range literals clamp.
  EXPECT_NEAR(selectivity("Order", "quantity > 1000"), 0.0, 0.01);
  EXPECT_NEAR(selectivity("Order", "quantity < 1000"), 1.0, 0.01);
}

TEST_F(CostModelTest, DateRangeSelectivity) {
  EXPECT_NEAR(selectivity("Order", "date > DATE '1996-07-01'"), 0.5, 0.01);
  EXPECT_NEAR(selectivity("Order", "date > DATE '1996-10-01'"), 0.25, 0.01);
}

TEST_F(CostModelTest, NotAndOrCombinators) {
  EXPECT_NEAR(selectivity("Order", "NOT quantity > 100"), 0.5, 0.01);
  EXPECT_NEAR(selectivity("Order", "quantity > 100 AND quantity > 150"),
              0.125, 0.01);  // independence assumption
  EXPECT_NEAR(selectivity("Order", "quantity > 100 OR quantity > 150"),
              0.627, 0.01);  // 1 - 0.5 * 0.75
  EXPECT_NEAR(selectivity("Division", "city <> 'LA'"), 0.98, 1e-9);
}

TEST_F(CostModelTest, DefaultsWhenStatsMissing) {
  // Part.supplier has distinct stats; use a column with none: make one.
  Catalog c(10.0);
  RelationStats stats;
  stats.rows = 100;
  c.add_relation("T", Schema({{"x", ValueType::kInt64, ""}}), stats);
  CostModel m(c, paper_cost_config());
  const PlanPtr s = make_scan(c, "T");
  // No distinct info: defaults to near-unique (rows), so eq -> 1/rows.
  EXPECT_DOUBLE_EQ(
      m.selectivity(bind_expr(parse_predicate("x = 5"), s->output_schema()),
                    m.estimate(s)),
      1.0 / 100);
  // No range info: default range selectivity.
  EXPECT_DOUBLE_EQ(
      m.selectivity(bind_expr(parse_predicate("x > 5"), s->output_schema()),
                    m.estimate(s)),
      paper_cost_config().default_range_selectivity);
}

TEST_F(CostModelTest, SelectEstimateShrinksRows) {
  const PlanPtr plan = make_select(scan("Division"),
                                   eq(col("city"), lit_str("LA")));
  const NodeEstimate e = model_.estimate(plan);
  EXPECT_DOUBLE_EQ(e.rows, 100);        // 5'000 * 0.02
  EXPECT_DOUBLE_EQ(e.selection_factor, 0.02);
  EXPECT_DOUBLE_EQ(e.distinct_of("Division.city", 0), 1);  // pinned value
  EXPECT_LE(e.distinct_of("Division.Did", 0), 100);        // clamped to rows
}

TEST_F(CostModelTest, JoinUsesOverrideScaledBySelections) {
  // Product |x| Division pinned at 30k rows / 5k blocks; with the city
  // selection only 2% survives.
  const PlanPtr plain = make_join(scan("Product"), scan("Division"),
                                  eq(col("Product.Did"), col("Division.Did")));
  EXPECT_DOUBLE_EQ(model_.estimate(plain).rows, 30'000);
  EXPECT_DOUBLE_EQ(model_.estimate(plain).blocks, 5'000);

  const PlanPtr selected = make_join(
      scan("Product"),
      make_select(scan("Division"), eq(col("city"), lit_str("LA"))),
      eq(col("Product.Did"), col("Division.Did")));
  EXPECT_DOUBLE_EQ(model_.estimate(selected).rows, 600);  // 30k * 0.02
  EXPECT_DOUBLE_EQ(model_.estimate(selected).blocks, 100);  // 5k scaled
}

TEST_F(CostModelTest, JoinWithoutOverrideUsesDistinctArithmetic) {
  CostModelConfig config = paper_cost_config();
  config.use_join_overrides = false;
  const CostModel m(catalog_, config);
  const PlanPtr join = make_join(scan("Product"), scan("Division"),
                                 eq(col("Product.Did"), col("Division.Did")));
  // 30k * 5k / max(5k, 5k) = 30k.
  EXPECT_DOUBLE_EQ(m.estimate(join).rows, 30'000);
  const PlanPtr oc = make_join(scan("Order"), scan("Customer"),
                               eq(col("Order.Cid"), col("Customer.Cid")));
  // 50k * 20k / 20k = 50k (the paper pins 25k instead — override wins
  // when enabled).
  EXPECT_DOUBLE_EQ(m.estimate(oc).rows, 50'000);
  EXPECT_DOUBLE_EQ(model_.estimate(oc).rows, 25'000);
}

TEST_F(CostModelTest, CrossJoinMultiplies) {
  CostModelConfig config = paper_cost_config();
  config.use_join_overrides = false;
  const CostModel m(catalog_, config);
  const PlanPtr cross = make_join(scan("Division"), scan("Customer"),
                                  lit(Value::boolean(true)));
  EXPECT_DOUBLE_EQ(m.estimate(cross).rows, 5'000.0 * 20'000.0);
}

TEST_F(CostModelTest, SelectOpCostHalfScanForEquality) {
  // Equality selection on Division: half of 500 blocks (the paper's
  // 0.25k for tmp1).
  const PlanPtr eq_sel = make_select(scan("Division"),
                                     eq(col("city"), lit_str("LA")));
  EXPECT_DOUBLE_EQ(model_.op_cost(eq_sel), 250);
  EXPECT_DOUBLE_EQ(model_.full_cost(eq_sel), 250);

  // Range selection pays the full scan.
  const PlanPtr range_sel = make_select(scan("Order"),
                                        gt(col("quantity"), lit_i64(100)));
  EXPECT_DOUBLE_EQ(model_.op_cost(range_sel), 6'000);
}

TEST_F(CostModelTest, HalfScanConfigurable) {
  CostModelConfig config = paper_cost_config();
  config.equality_select_half_scan = false;
  const CostModel m(catalog_, config);
  const PlanPtr eq_sel = make_select(scan("Division"),
                                     eq(col("city"), lit_str("LA")));
  EXPECT_DOUBLE_EQ(m.op_cost(eq_sel), 500);
}

TEST_F(CostModelTest, JoinOpCostBlockNestedLoop) {
  // Order |x| Customer: smaller side (2k) outer: 2k + 2k * 6k = 12.002m —
  // the paper's 12.03m for tmp4.
  const PlanPtr join = make_join(scan("Order"), scan("Customer"),
                                 eq(col("Order.Cid"), col("Customer.Cid")));
  EXPECT_DOUBLE_EQ(model_.op_cost(join), 2'000 + 2'000.0 * 6'000.0);
}

TEST_F(CostModelTest, FullCostAccumulatesSubtree) {
  // tmp2 of the paper: select (250) then join: outer = selected Division
  // (10 blocks): 10 + 10 * 3000 = 30'010; total 30'260.
  const PlanPtr tmp2 = make_join(
      scan("Product"),
      make_select(scan("Division"), eq(col("city"), lit_str("LA"))),
      eq(col("Product.Did"), col("Division.Did")));
  EXPECT_DOUBLE_EQ(model_.full_cost(tmp2), 250 + 10 + 10 * 3'000);
}

TEST_F(CostModelTest, BareScanFullCostIsItsBlocks) {
  EXPECT_DOUBLE_EQ(model_.full_cost(scan("Order")), 6'000);
}

TEST_F(CostModelTest, ProjectCostAndWidth) {
  const PlanPtr proj = make_project(scan("Product"), {"name"});
  EXPECT_DOUBLE_EQ(model_.op_cost(proj), 3'000);  // scan the input
  const NodeEstimate e = model_.estimate(proj);
  EXPECT_DOUBLE_EQ(e.rows, 30'000);
  EXPECT_LT(e.blocks, 3'000);  // narrower tuples pack denser
}

TEST_F(CostModelTest, IsPureEquality) {
  EXPECT_TRUE(is_pure_equality(parse_predicate("a = 1")));
  EXPECT_TRUE(is_pure_equality(parse_predicate("a = 1 AND b = 2")));
  EXPECT_FALSE(is_pure_equality(parse_predicate("a > 1")));
  EXPECT_FALSE(is_pure_equality(parse_predicate("a = 1 OR b = 2")));
  EXPECT_FALSE(is_pure_equality(parse_predicate("a = 1 AND b > 2")));
  EXPECT_FALSE(is_pure_equality(nullptr));
}

TEST_F(CostModelTest, BlocksForRespectsWidth) {
  EXPECT_DOUBLE_EQ(model_.blocks_for(0, 100), 0);
  EXPECT_GE(model_.blocks_for(1, 100), 1);
  // Twice the width, twice the blocks (same rows; widths dividing the
  // block size exactly, to avoid blocking-factor floor effects).
  EXPECT_NEAR(model_.blocks_for(100'000, 64) * 2,
              model_.blocks_for(100'000, 128), 2);
}

TEST_F(CostModelTest, EstimateOfNonCatalogScanThrows) {
  const PlanPtr named = make_named_scan(
      "view1", Schema({{"x", ValueType::kInt64, "view1"}}));
  EXPECT_THROW(model_.estimate(named), PlanError);
}

TEST_F(CostModelTest, NodeEstimateDistinctClamping) {
  NodeEstimate e;
  e.rows = 10;
  e.distinct["c"] = 1'000;
  EXPECT_DOUBLE_EQ(e.distinct_of("c", 5), 10);   // clamped to rows
  EXPECT_DOUBLE_EQ(e.distinct_of("zz", 5), 5);   // fallback
}

}  // namespace
}  // namespace mvd
