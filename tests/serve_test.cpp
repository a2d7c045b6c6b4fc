// mvserve tests: view-subsumption matching and compensation synthesis
// (src/optimizer/view_rewrite), the deployed-view registry lifecycle
// (VALID / STALE gating the matcher), MvServer's serve /
// ingest / refresh protocol, and the snapshot-swap concurrency contract
// (MvserveTsanTest, also run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/check/implication.hpp"
#include "src/lint/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/server.hpp"
#include "src/sql/lexer.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"
#include "tests/serve_oracle.hpp"

namespace mvd {
namespace {

WarehouseDesigner paper_designer() {
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(make_paper_catalog(), options);
  for (const QuerySpec& q : make_paper_example().queries) {
    designer.add_query(q);
  }
  return designer;
}

/// Force-materialize every query's result node, so each registered query
/// has a covering view — deterministic fixtures for the matcher and the
/// lifecycle tests regardless of what the selection heuristic picks.
DesignResult forced_design(const WarehouseDesigner& designer) {
  DesignResult design = designer.design();
  MaterializedSet m;
  const MvppGraph& g = design.graph();
  for (const NodeId q : g.query_ids()) {
    m.insert(g.node(q).children[0]);
  }
  design.selection.materialized = std::move(m);
  return design;
}

/// A view summarized from a SQL definition's canonical plan.
ViewDef view_from_sql(const Catalog& c, const std::string& name,
                      const std::string& sql) {
  const QuerySpec spec = parse_and_bind(c, name, 1.0, sql);
  return extract_view_def(name, canonical_plan(c, spec), 100.0);
}

// ---- Matching & compensation ----------------------------------------------

class ViewMatchTest : public ::testing::Test {
 protected:
  ViewMatchTest() : catalog_(make_paper_catalog()) {}

  QuerySpec query(const std::string& sql) const {
    return parse_adhoc(catalog_, sql);
  }

  Catalog catalog_;
};

TEST_F(ViewMatchTest, ExactMatchHasEmptyResidual) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 100 AND Order.Cid = Customer.Cid"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  EXPECT_EQ(m->view, "v_q4");
  EXPECT_TRUE(m->residual.empty());
}

TEST_F(ViewMatchTest, StrictlyNarrowerPredicateLeavesResidual) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date, quantity FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const auto m = match_query_to_view(
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 150 AND Order.Cid = Customer.Cid"),
      v, catalog_);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->residual.size(), 1u);  // quantity > 150; the join is entailed
}

TEST_F(ViewMatchTest, NeSharpenedBoundaryStillMatches) {
  // quantity >= 100 AND quantity <> 100 == quantity > 100 on an integer
  // column — the ne-set endpoint sharpening the oracle fix added.
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const auto m = match_query_to_view(
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity >= 100 AND quantity <> 100 "
            "AND Order.Cid = Customer.Cid"),
      v, catalog_);
  EXPECT_TRUE(m.has_value());
}

TEST_F(ViewMatchTest, NearMissPredicateJustOutsideRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  // quantity > 99 admits quantity = 100, which the view discarded.
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, date FROM Order, Customer "
                         "WHERE quantity > 99 AND Order.Cid = Customer.Cid"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_FALSE(why.empty());
  // So does the closed endpoint quantity >= 100.
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, date FROM Order, Customer "
                         "WHERE quantity >= 100 AND Order.Cid = Customer.Cid"),
                   v, catalog_)
                   .has_value());
}

TEST_F(ViewMatchTest, NearMissExtraOrMissingJoinRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  // Extra join (one more relation than the view).
  EXPECT_FALSE(
      match_query_to_view(
          query("SELECT Customer.city FROM Order, Customer, Product "
                "WHERE quantity > 100 AND Order.Cid = Customer.Cid "
                "AND Order.Pid = Product.Pid"),
          v, catalog_, &why)
          .has_value());
  EXPECT_EQ(why, "relation sets differ");
  // Missing join (a subset of the view's relations).
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT date FROM Order WHERE quantity > 100"), v,
                   catalog_)
                   .has_value());
}

TEST_F(ViewMatchTest, ProjectionColumnNotStoredRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.name FROM Order, Customer "
                         "WHERE quantity > 100 AND Order.Cid = Customer.Cid"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_NE(why.find("not stored"), std::string::npos);
}

TEST_F(ViewMatchTest, AggregatePassThroughProjectsStoredColumns) {
  const ViewDef v = view_from_sql(
      catalog_, "v_agg",
      "SELECT Customer.city, count(*) AS cnt, sum(quantity) AS sq "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY Customer.city");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, count(*), sum(quantity) "
            "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
            "GROUP BY Customer.city"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  // Pass-through: no re-aggregation, just a projection of stored columns.
  EXPECT_EQ(m->plan->kind(), OpKind::kProject);
}

TEST_F(ViewMatchTest, RollupFromFinerGrouping) {
  const ViewDef v = view_from_sql(
      catalog_, "v_fine",
      "SELECT Customer.city, date, count(*) AS cnt, sum(quantity) AS sq, "
      "min(quantity) AS mn, max(quantity) AS mx "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY Customer.city, date");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, count(*), sum(quantity), min(quantity), "
            "max(quantity) FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  ASSERT_EQ(m->plan->kind(), OpKind::kAggregate);
  const auto& agg = static_cast<const AggregateOp&>(*m->plan);
  ASSERT_EQ(agg.aggregates().size(), 4u);
  // COUNT rolls up as an integer-preserving sum of stored counts.
  EXPECT_EQ(agg.aggregates()[0].fn, AggFn::kSumInt);
  EXPECT_EQ(agg.aggregates()[1].fn, AggFn::kSum);
  EXPECT_EQ(agg.aggregates()[2].fn, AggFn::kMin);
  EXPECT_EQ(agg.aggregates()[3].fn, AggFn::kMax);
}

TEST_F(ViewMatchTest, AvgRefusesRollupButAllowsPassThrough) {
  const ViewDef v = view_from_sql(
      catalog_, "v_fine",
      "SELECT Customer.city, date, avg(quantity) AS aq "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY Customer.city, date");
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, avg(quantity) "
                         "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
                         "GROUP BY Customer.city"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_NE(why.find("avg"), std::string::npos);
  EXPECT_TRUE(match_query_to_view(
                  query("SELECT Customer.city, date, avg(quantity) "
                        "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
                        "GROUP BY Customer.city, date"),
                  v, catalog_)
                  .has_value());
}

TEST_F(ViewMatchTest, NearMissCoarserViewGroupingRefuses) {
  // The view groups coarser than the query asks — the stored rows no
  // longer hold the query's groups.
  const ViewDef v = view_from_sql(
      catalog_, "v_coarse",
      "SELECT Customer.city, count(*) AS cnt FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city");
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, date, count(*) "
                         "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
                         "GROUP BY Customer.city, date"),
                   v, catalog_)
                   .has_value());
}

TEST_F(ViewMatchTest, SpjQueryOverAggregateViewRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_agg",
      "SELECT Customer.city, count(*) AS cnt FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city");
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city FROM Order, Customer "
                         "WHERE Order.Cid = Customer.Cid"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_NE(why.find("SPJ query over an aggregate view"), std::string::npos);
}

TEST_F(ViewMatchTest, ResidualFinerThanAggregateGroupingRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_agg",
      "SELECT Customer.city, count(*) AS cnt FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city");
  // quantity > 100 filters inside groups; the stored rows cannot apply it.
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, count(*) "
                         "FROM Order, Customer "
                         "WHERE Order.Cid = Customer.Cid AND quantity > 100 "
                         "GROUP BY Customer.city"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_FALSE(why.empty());
}

TEST_F(ViewMatchTest, AggregateQueryOverSpjViewReaggregates) {
  const ViewDef v = view_from_sql(
      catalog_, "v_spj",
      "SELECT Customer.city, quantity, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, count(*), max(quantity) "
            "FROM Order, Customer "
            "WHERE quantity > 150 AND Order.Cid = Customer.Cid "
            "GROUP BY Customer.city"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  EXPECT_EQ(m->plan->kind(), OpKind::kAggregate);
  EXPECT_EQ(m->residual.size(), 1u);
}

TEST_F(ViewMatchTest, BestMatchPrefersFewestStoredBlocks) {
  ViewDef big = view_from_sql(
      catalog_, "v_big",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  ViewDef small = big;
  small.name = "v_small";
  big.stored_blocks = 500;
  small.stored_blocks = 50;
  const QuerySpec q =
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const auto m = best_view_match(q, {big, small}, catalog_);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->view, "v_small");
}

TEST_F(ViewMatchTest, BestMatchReportsEveryRefusal) {
  ViewDef wide = view_from_sql(
      catalog_, "v_wide",
      "SELECT Customer.city, date, quantity FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  ViewDef narrow = view_from_sql(
      catalog_, "v_narrow",
      "SELECT Customer.city, date, quantity FROM Order, Customer "
      "WHERE quantity > 500 AND Order.Cid = Customer.Cid");
  ViewDef other = view_from_sql(catalog_, "v_other",
                                "SELECT city FROM Customer");
  const QuerySpec q =
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 200 AND Order.Cid = Customer.Cid");
  std::vector<ViewRefusal> refusals;
  const auto m =
      best_view_match(q, {narrow, wide, other}, catalog_, &refusals);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->view, "v_wide");
  ASSERT_EQ(refusals.size(), 2u);
  EXPECT_EQ(refusals[0].view, "v_narrow");
  EXPECT_EQ(refusal_code(refusals[0].reason), "containment");
  EXPECT_EQ(refusals[1].view, "v_other");
  EXPECT_EQ(refusal_code(refusals[1].reason), "relations");
}

// ---- Template guards: each widening, against the matcher -------------------

class TemplateGuardTest : public ViewMatchTest {
 protected:
  /// Order ⋈ Customer filtered through an OR: the view's facts hold
  /// nothing on quantity, so quantity conjuncts stay residual for every
  /// literal (widening (c)) while containment still reads them.
  ViewDef or_view() const {
    return view_from_sql(
        catalog_, "v_or",
        "SELECT Customer.city, date, quantity FROM Order, Customer "
        "WHERE (quantity > 100 OR date > DATE '1996-07-01') "
        "AND Order.Cid = Customer.Cid");
  }

  /// The anchor's template decision must hold for `request` exactly when
  /// its guards say so, and then equal best_view_match on `request`.
  void expect_admits(const TemplateMatch& t, const std::vector<ViewDef>& views,
                     const std::string& request, bool admitted) const {
    const QuerySpec q = query(request);
    EXPECT_EQ(t.admits(q), admitted) << request;
    if (!t.admits(q)) return;
    std::vector<ViewRefusal> refusals;
    const auto best = best_view_match(q, views, catalog_, &refusals);
    EXPECT_EQ(best.has_value(), !t.view.empty()) << request;
    if (best.has_value()) {
      EXPECT_EQ(best->view, t.view) << request;
    }
  }
};

// (a): two conjuncts each removable alone, but not together — only the
// first in template order is freed.
TEST_F(TemplateGuardTest, ContainmentFreesConjunctsJointly) {
  const std::vector<ViewDef> views{or_view()};
  TemplateMatch t;
  const auto m = match_template(
      query("SELECT Customer.city FROM Order, Customer "
            "WHERE quantity > 120 AND quantity >= 130 "
            "AND Order.Cid = Customer.Cid"),
      views, catalog_, t);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(t.guards.size(), 2u);
  // Template order: (quantity > ?) before (quantity >= ?).
  EXPECT_FALSE(t.guards[0].pinned);
  EXPECT_TRUE(t.guards[0].admits(Value::int64(-5)));
  EXPECT_TRUE(t.guards[0].admits(Value::int64(1'000'000)));
  // The second proves containment alone: one-sided, not free.
  EXPECT_FALSE(t.guards[1].admits(Value::int64(129)));
  const std::string shape =
      "SELECT Customer.city FROM Order, Customer WHERE quantity > $a "
      "AND quantity >= $b AND Order.Cid = Customer.Cid";
  const auto with = [&](int a, int b) {
    std::string sql = shape;
    sql.replace(sql.find("$a"), 2, std::to_string(a));
    sql.replace(sql.find("$b"), 2, std::to_string(b));
    return sql;
  };
  expect_admits(t, views, with(7, 500), true);
  expect_admits(t, views, with(7, 131), true);
  // Freeing both slots at once would admit this one, which the view does
  // not contain.
  expect_admits(t, views, with(7, 50), false);
  EXPECT_FALSE(best_view_match(query(with(7, 50)), views, catalog_));
  // The evidence drops exactly the freed conjunct and still proves
  // containment.
  EXPECT_TRUE(implies(t.evidence_pred, m->view_pred, m->joint));
  EXPECT_EQ(conjuncts_of(t.evidence_pred).size(), 2u);  // join + q >= 130
}

// (b): a matched view admits tighter bounds only, a view refused on
// containment looser ones only; literals under OR stay pinned.
TEST_F(TemplateGuardTest, BoundsMoveOnlyTowardTheSameDecision) {
  const std::vector<ViewDef> views{or_view()};
  const std::string shape =
      "SELECT Customer.city FROM Order, Customer "
      "WHERE quantity > $ AND Order.Cid = Customer.Cid";
  const auto with = [&](const std::string& v) {
    std::string sql = shape;
    sql.replace(sql.find('$'), 1, v);
    return sql;
  };

  TemplateMatch matched;
  ASSERT_TRUE(match_template(query(with("150")), views, catalog_, matched));
  expect_admits(matched, views, with("150"), true);
  expect_admits(matched, views, with("151"), true);
  expect_admits(matched, views, with("100000"), true);
  expect_admits(matched, views, with("149"), false);
  expect_admits(matched, views, with("150.0"), false);  // another type

  TemplateMatch refused;
  ASSERT_FALSE(match_template(query(with("50")), views, catalog_, refused));
  ASSERT_EQ(refused.refusals.size(), 1u);
  EXPECT_EQ(refusal_code(refused.refusals[0].reason), "containment");
  expect_admits(refused, views, with("50"), true);
  expect_admits(refused, views, with("0"), true);
  expect_admits(refused, views, with("51"), false);

  // The view's own OR matches by text; a tighter literal inside it does
  // not, so those slots must stay pinned.
  const std::string nested_shape =
      "SELECT Customer.city FROM Order, Customer "
      "WHERE (quantity > $ OR date > DATE '1996-07-01') "
      "AND Order.Cid = Customer.Cid";
  const auto nested_with = [&](const std::string& v) {
    std::string sql = nested_shape;
    sql.replace(sql.find('$'), 1, v);
    return sql;
  };
  TemplateMatch nested;
  ASSERT_TRUE(
      match_template(query(nested_with("100")), views, catalog_, nested));
  ASSERT_EQ(nested.guards.size(), 2u);
  EXPECT_TRUE(nested.guards[0].pinned);
  EXPECT_TRUE(nested.guards[1].pinned);
  expect_admits(nested, views, nested_with("101"), false);
  EXPECT_FALSE(best_view_match(query(nested_with("101")), views, catalog_));
}

// (c): a column the view's facts leave alone is residual for every finite
// literal; a bound or bound-class column pins its slot.
TEST_F(TemplateGuardTest, ResidualStatusFreesOnlyUnconstrainedColumns) {
  const ViewDef v_or = or_view();
  TemplateMatch free_city;
  ASSERT_TRUE(match_template(
      query("SELECT Customer.city FROM Order, Customer "
            "WHERE quantity > 150 AND Customer.city = 'LA' "
            "AND Order.Cid = Customer.Cid"),
      {v_or}, catalog_, free_city));
  ASSERT_EQ(free_city.guards.size(), 2u);
  // Template order: (Customer.city = ?) before (Order.quantity > ?).
  EXPECT_EQ(free_city.guards[0].anchor.as_string(), "LA");
  EXPECT_TRUE(free_city.guards[0].admits(Value::string("SF")));

  const ViewDef v_la = view_from_sql(
      catalog_, "v_la",
      "SELECT Customer.city, date, quantity FROM Order, Customer "
      "WHERE Customer.city = 'LA' AND Order.Cid = Customer.Cid");
  TemplateMatch bound_city;
  ASSERT_TRUE(match_template(
      query("SELECT Customer.city FROM Order, Customer "
            "WHERE Customer.city = 'LA' AND Order.Cid = Customer.Cid"),
      {v_la}, catalog_, bound_city));
  ASSERT_EQ(bound_city.guards.size(), 1u);
  EXPECT_TRUE(bound_city.guards[0].pinned);
  EXPECT_FALSE(bound_city.guards[0].admits(Value::string("SF")));

  // Numeric slots: finite values only, whatever the widenings allow.
  TemplateMatch free_quantity;
  ASSERT_TRUE(match_template(
      query("SELECT Customer.city FROM Order, Customer "
            "WHERE quantity > 120.5 AND quantity >= 130 "
            "AND Order.Cid = Customer.Cid"),
      {v_or}, catalog_, free_quantity));
  const LiteralGuard& g = free_quantity.guards[0];
  ASSERT_EQ(g.anchor.type(), ValueType::kDouble);
  EXPECT_TRUE(g.admits(Value::real(-1e300)));
  EXPECT_TRUE(g.admits(Value::real(1e300)));
  EXPECT_FALSE(g.admits(Value::real(std::numeric_limits<double>::infinity())));
  EXPECT_FALSE(g.admits(Value::real(std::nan(""))));
}

// Views refused before their predicate is read constrain nothing.
TEST_F(TemplateGuardTest, ShapeRefusalsLeaveSlotsFree) {
  const ViewDef other = view_from_sql(catalog_, "v_other",
                                      "SELECT city FROM Customer");
  TemplateMatch t;
  ASSERT_FALSE(match_template(
      query("SELECT name FROM Division WHERE city = 'LA'"), {other}, catalog_,
      t));
  ASSERT_EQ(t.guards.size(), 1u);
  EXPECT_FALSE(t.guards[0].pinned);
  EXPECT_TRUE(t.admits(query("SELECT name FROM Division WHERE city = 'SF'")));
}

// ---- MvServer: serving, lifecycle, refresh ---------------------------------

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : designer_(paper_designer()),
        design_(forced_design(designer_)),
        server_(std::make_unique<MvServer>(designer_.catalog(), design_,
                                           populate_paper_database(0.02, 23))) {
  }

  /// Name of the stored view answering query root `q` (its result node).
  std::string view_of(const std::string& query_name) const {
    const MvppGraph& g = design_.graph();
    const NodeId q = g.find_by_name(query_name);
    return g.node(g.node(q).children[0]).name;
  }

  WarehouseDesigner designer_;
  DesignResult design_;
  std::unique_ptr<MvServer> server_;
};

TEST_F(ServeTest, RegisteredWorkloadRewritesAndMatchesBase) {
  for (const QuerySpec& q : designer_.queries()) {
    const ServeResult hit = server_->serve(q);
    const ServeResult base = server_->serve(q, ServePath::kBaseOnly);
    EXPECT_TRUE(hit.rewritten) << q.name() << ": " << hit.refusal;
    EXPECT_FALSE(base.rewritten);
    EXPECT_TRUE(same_bag(hit.table, base.table)) << q.name();
    // ExecStats sanity: both paths did real block work, and the rewritten
    // path never scans more rows than it reports reading.
    EXPECT_GT(hit.stats.blocks_read, 0) << q.name();
    EXPECT_GT(base.stats.blocks_read, 0) << q.name();
    EXPECT_GE(hit.stats.rows_scanned,
              static_cast<double>(hit.table.row_count()));
  }
}

TEST_F(ServeTest, SqlEntryPointServesAdhocResidualQuery) {
  // Narrower than Q4's view (extra date conjunct); the residual runs over
  // the stored date column.
  const std::string sql =
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-01' "
      "AND Order.Cid = Customer.Cid";
  const ServeResult hit = server_->serve(sql);
  EXPECT_TRUE(hit.rewritten) << hit.refusal;
  const ServeResult base = server_->serve(sql, ServePath::kBaseOnly);
  EXPECT_TRUE(same_bag(hit.table, base.table));
  EXPECT_LT(hit.table.row_count(), base.stats.rows_scanned);
}

TEST_F(ServeTest, UncoveredQueryFallsBackWithReason) {
  const ServeResult r = server_->serve("SELECT name FROM Division");
  EXPECT_FALSE(r.rewritten);
  EXPECT_FALSE(r.refusal.empty());
  EXPECT_EQ(r.table.schema().size(), 1u);
  EXPECT_THROW(server_->serve("SELECT name FROM Division",
                              ServePath::kViewOnly),
               ExecError);
}

TEST_F(ServeTest, RewriteSwitchDisablesMatching) {
  MvServer plain(designer_.catalog(), design_,
                 populate_paper_database(0.02, 23),
                 ServeOptions{ExecMode::kRow, 1, /*rewrite=*/false});
  const ServeResult r = plain.serve(designer_.queries()[0]);
  EXPECT_FALSE(r.rewritten);
  EXPECT_EQ(r.refusal, "rewriting disabled");
  // The forced view-only path overrides the switch.
  EXPECT_TRUE(plain.serve(designer_.queries()[0], ServePath::kViewOnly)
                  .rewritten);
}

TEST_F(ServeTest, IngestMarksDependentViewsStaleAndMatcherSkipsThem) {
  const QuerySpec& q4 = designer_.queries()[3];
  ASSERT_TRUE(server_->serve(q4).rewritten);

  Rng rng(99);
  const std::uint64_t epoch = server_->ingest("Order", {}, rng);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(server_->status(view_of("Q4")), ViewStatus::kStale);
  EXPECT_EQ(server_->status(view_of("Q3")), ViewStatus::kStale);
  // Q1 reads Product/Division only; untouched.
  EXPECT_EQ(server_->status(view_of("Q1")), ViewStatus::kValid);

  // The stale view no longer serves, but the fallback answer is already
  // consistent with the updated base tables of the same snapshot.
  const ServeResult r = server_->serve(q4);
  EXPECT_FALSE(r.rewritten);
  EXPECT_TRUE(same_bag(r.table,
                       server_->serve(q4, ServePath::kBaseOnly).table));
  // Q1's view still serves.
  EXPECT_TRUE(server_->serve(designer_.queries()[0]).rewritten);
}

// A view stays STALE, and is skipped, until the one publish of the
// refresh that rebuilds it: that epoch serves it VALID again.
TEST_F(ServeTest, StaleViewsServeAgainFromTheRefreshPublish) {
  Rng rng(99);
  const std::uint64_t ingested = server_->ingest("Order", {}, rng);
  EXPECT_EQ(server_->status(view_of("Q4")), ViewStatus::kStale);
  const ServeResult r = server_->serve(designer_.queries()[3]);
  EXPECT_FALSE(r.rewritten);
  EXPECT_EQ(r.epoch, ingested);

  EXPECT_EQ(server_->refresh(RefreshMode::kRecompute), ingested + 1);
  EXPECT_EQ(server_->status(view_of("Q4")), ViewStatus::kValid);
  const ServeResult again = server_->serve(designer_.queries()[3]);
  EXPECT_TRUE(again.rewritten);
  EXPECT_EQ(again.epoch, ingested + 1);
  EXPECT_TRUE(same_bag(
      again.table,
      server_->serve(designer_.queries()[3], ServePath::kBaseOnly).table));
}

// With counters on, the metrics registry keeps no copy of served traffic:
// new query fingerprints grow the observatory, and a later write adds no
// metric to the registry.
TEST_F(ServeTest, CountersOnWritesDoNotGrowTheRegistryWithTraffic) {
  set_trace_level(TraceLevel::kCounters);
  int day = 0;  // each request its own date literal, so its own fingerprint
  const auto serve_distinct = [&] {
    for (int i = 0; i < 40; ++i, ++day) {
      char date[32];
      std::snprintf(date, sizeof(date), "1996-%02d-%02d", 1 + day / 28,
                    1 + day % 28);
      const ServeResult r = server_->serve(
          std::string("SELECT Customer.city, date FROM Order, Customer "
                      "WHERE quantity > 100 AND date > DATE '") +
          date + "' AND Order.Cid = Customer.Cid");
      EXPECT_TRUE(r.rewritten) << r.refusal;
    }
  };
  Rng rng(11);
  serve_distinct();
  server_->ingest("Division", {}, rng);
  const std::size_t first = MetricsRegistry::global().snapshot().metrics.size();
  serve_distinct();
  server_->ingest("Division", {}, rng);
  const std::size_t second =
      MetricsRegistry::global().snapshot().metrics.size();
  set_trace_level(std::nullopt);

  EXPECT_EQ(second, first);
  EXPECT_EQ(server_->observatory()->stats().queries.size(), 80u);
}

TEST_F(ServeTest, IncrementalRefreshRestoresServingWithCorrectContent) {
  Rng rng(7);
  server_->ingest("Order", {}, rng);
  server_->ingest("Customer", {}, rng);
  server_->refresh(RefreshMode::kIncremental);
  for (const QuerySpec& q : designer_.queries()) {
    const ServeResult hit = server_->serve(q);
    EXPECT_TRUE(hit.rewritten) << q.name() << ": " << hit.refusal;
    EXPECT_TRUE(same_bag(hit.table,
                         server_->serve(q, ServePath::kBaseOnly).table))
        << q.name();
  }
}

TEST_F(ServeTest, PinnedSnapshotSurvivesConcurrentSwap) {
  const QuerySpec& q4 = designer_.queries()[3];
  const auto pre = server_->snapshot();
  const ServeResult before = server_->serve_on(pre, q4);

  Rng rng(5);
  server_->update_and_refresh("Order", {}, rng, RefreshMode::kRecompute);
  EXPECT_EQ(server_->epoch(), 1u);

  // The pinned snapshot still answers, and still answers the *old* state.
  const ServeResult replay = server_->serve_on(pre, q4);
  EXPECT_TRUE(same_bag(before.table, replay.table));
  // The current snapshot serves the new state from a VALID view.
  const ServeResult now = server_->serve(q4);
  EXPECT_TRUE(now.rewritten);
  EXPECT_TRUE(same_bag(now.table,
                       server_->serve(q4, ServePath::kBaseOnly).table));
}

/// Every table of a snapshot by name, with its address.
std::map<std::string, const Table*> table_addresses(const ServeSnapshot& s) {
  std::map<std::string, const Table*> out;
  for (const std::string& n : s.db->table_names()) out[n] = &s.db->table(n);
  return out;
}

/// Names whose table address differs between two snapshots.
std::set<std::string> written_tables(const ServeSnapshot& before,
                                     const ServeSnapshot& after) {
  const auto a = table_addresses(before);
  const auto b = table_addresses(after);
  EXPECT_EQ(a.size(), b.size());
  std::set<std::string> out;
  for (const auto& [n, p] : a) {
    if (b.at(n) != p) out.insert(n);
  }
  return out;
}

// A snapshot shares every table with the one before it, except the base
// relation an ingest wrote and the views a refresh changed.
TEST_F(ServeTest, WritesCloneOnlyTheTablesTheyChange) {
  Rng rng(99);
  const std::vector<std::pair<std::string, RefreshMode>> rounds = {
      {"Order", RefreshMode::kIncremental},
      {"Customer", RefreshMode::kRecompute}};
  for (const auto& [relation, mode] : rounds) {
    SCOPED_TRACE(relation);
    const auto initial = server_->snapshot();
    server_->ingest(relation, {}, rng);
    const auto ingested = server_->snapshot();
    EXPECT_EQ(written_tables(*initial, *ingested),
              std::set<std::string>{relation});

    const std::vector<std::string> pending = ingested->registry.pending();
    const std::set<std::string> stale(pending.begin(), pending.end());
    server_->refresh(mode);
    // Only refreshed views are written (one whose delta came out empty
    // is not written at all).
    const std::set<std::string> written =
        written_tables(*ingested, *server_->snapshot());
    EXPECT_FALSE(written.empty());
    EXPECT_TRUE(std::includes(stale.begin(), stale.end(), written.begin(),
                              written.end()));
  }
}

// An empty relation yields no delta entry: the write still publishes,
// journals zero delta rows, and every query keeps answering exactly.
TEST_F(ServeTest, IngestIntoAnEmptyRelationJournalsZeroDeltaRows) {
  Database db = populate_paper_database(0.02, 23);
  const Table& division = db.table("Division");
  db.put_table("Division",
               Table(division.schema(), division.blocking_factor()));
  ServeOptions options;
  options.observe = true;
  MvServer server(designer_.catalog(), design_, db, options);

  Rng rng(3);
  EXPECT_EQ(server.ingest("Division", {}, rng), 1u);
  EXPECT_EQ(server.update_and_refresh("Division", {}, rng), 2u);
  std::vector<JournalEvent> ingests;
  for (const JournalEvent& e : server.observatory()->journal()->events()) {
    if (e.kind == EventKind::kIngest) ingests.push_back(e);
  }
  ASSERT_EQ(ingests.size(), 2u);
  for (const JournalEvent& e : ingests) {
    EXPECT_EQ(e.relation, "Division");
    EXPECT_EQ(e.delta_rows, 0);
  }
  for (const QuerySpec& q : designer_.queries()) {
    const ServeResult hit = server.serve(q);
    EXPECT_TRUE(hit.rewritten) << q.name() << ": " << hit.refusal;
    EXPECT_TRUE(
        same_bag(hit.table, server.serve(q, ServePath::kBaseOnly).table))
        << q.name();
  }
}

TEST_F(ServeTest, RewriteLogEvidenceRechecks) {
  for (const QuerySpec& q : designer_.queries()) server_->serve(q);
  const std::vector<RewriteRecord> log = server_->rewrite_log();
  ASSERT_EQ(log.size(), designer_.queries().size());
  for (const RewriteRecord& r : log) {
    EXPECT_TRUE(implies(r.query_pred, r.view_pred, r.joint))
        << r.query << " -> " << r.view;
  }
}

// The rewrite log plugs into mvlint's serve/rewrite-consistent rule: a
// genuine log lints clean, and corrupting one record's evidence fires
// exactly that rule.
TEST_F(ServeTest, RewriteLogFeedsTheLintRule) {
  for (const QuerySpec& q : designer_.queries()) server_->serve(q);

  LintContext ctx;
  ctx.graph = &design_.graph();
  for (const RewriteRecord& r : server_->rewrite_log()) {
    ctx.rewrites.push_back(
        ServeRewriteCheck{r.query, r.view, r.query_pred, r.view_pred, r.joint});
  }
  ASSERT_FALSE(ctx.rewrites.empty());

  const LintRegistry& lint = LintRegistry::builtin();
  EXPECT_FALSE(lint.run(ctx).has_errors()) << lint.run(ctx).render_text();

  // Tamper: make one record's view predicate unsatisfiable over an int64
  // column of its joint schema. No satisfiable query predicate implies it.
  ServeRewriteCheck& victim = ctx.rewrites.front();
  const auto attr =
      std::find_if(victim.joint.attributes().begin(),
                   victim.joint.attributes().end(), [](const Attribute& a) {
                     return a.type == ValueType::kInt64;
                   });
  ASSERT_NE(attr, victim.joint.attributes().end());
  victim.view_pred = conj({cmp(CompareOp::kGt, col(attr->qualified()),
                               lit_i64(0)),
                           cmp(CompareOp::kLt, col(attr->qualified()),
                               lit_i64(0))});

  const LintReport tampered = lint.run(ctx);
  EXPECT_TRUE(tampered.has_errors());
  EXPECT_EQ(tampered.fired_rules(),
            std::set<std::string>{"serve/rewrite-consistent"});
}

// ---- Template cache ---------------------------------------------------------

/// `sql` with its first `$` replaced by `literal`.
std::string fill(const std::string& sql, const std::string& literal) {
  const std::size_t at = sql.find('$');
  std::string out(sql, 0, at);
  out.append(literal);
  out.append(sql, at + 1);
  return out;
}

const char* const kQ4Shape =
    "SELECT Customer.city, date FROM Order, Customer "
    "WHERE quantity > $ AND Order.Cid = Customer.Cid";

/// Serve `sql` and hold the answer to the matcher and to the base path on
/// the same snapshot. Returns whether the serve hit the template cache.
bool serve_checked(MvServer& server, const std::string& sql) {
  const auto snap = server.snapshot();
  const QuerySpec q = parse_adhoc(server.catalog(), sql);
  const std::uint64_t hits = server.template_cache_stats().hits;
  const ServeResult r = server.serve_on(snap, q);
  const bool hit = server.template_cache_stats().hits > hits;
  EXPECT_EQ(decision_mismatch(server, *snap, q, r), "") << sql;
  EXPECT_TRUE(
      same_bag(r.table, server.serve_on(snap, q, ServePath::kBaseOnly).table))
      << sql;
  return hit;
}

// The Q4 view keeps quantity > 100: literals on both sides of the
// boundary, in shuffled order, with int and with double literals.
TEST_F(ServeTest, TemplateCacheFollowsTheMatcherAcrossTheQ4Boundary) {
  for (const char* suffix : {"", ".0"}) {
    std::vector<int> xs;
    for (int x = 95; x <= 105; ++x) xs.push_back(x);
    Rng rng(11);
    rng.shuffle(xs);
    for (int round = 0; round < 2; ++round) {
      for (const int x : xs) {
        serve_checked(*server_, fill(kQ4Shape, std::to_string(x) + suffix));
      }
    }
  }
  EXPECT_GT(server_->template_cache_stats().hits, 0u);
}

// Q1's view binds city = 'LA': an 'SF' request must not reuse the entry.
TEST_F(ServeTest, BoundLiteralIsNotReused) {
  const std::string shape =
      "SELECT Product.name FROM Product, Division "
      "WHERE Product.Did = Division.Did AND Division.city = '$'";
  EXPECT_FALSE(serve_checked(*server_, fill(shape, "LA")));
  EXPECT_TRUE(serve_checked(*server_, fill(shape, "LA")));
  EXPECT_TRUE(server_->serve(fill(shape, "LA")).rewritten);
  EXPECT_FALSE(serve_checked(*server_, fill(shape, "SF")));
  EXPECT_FALSE(server_->serve(fill(shape, "SF")).rewritten);
}

// quantity > 5 AND quantity < v is contradictory once v <= 6, and a
// contradictory predicate implies every view (ex falso).
TEST_F(ServeTest, ExFalsoBoundaryIsGuarded) {
  const std::string shape =
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE Order.quantity > 5 AND Order.quantity < $ "
      "AND Order.Cid = Customer.Cid";
  for (const int v : {10, 7, 6, 5, 3, 6, 7, 12, 4, 200, 5}) {
    serve_checked(*server_, fill(shape, std::to_string(v)));
  }
}

TEST_F(ServeTest, ReorderedRequestsShareOneEntry) {
  EXPECT_FALSE(serve_checked(
      *server_,
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid "
      "AND date > DATE '1996-07-01'"));
  EXPECT_TRUE(serve_checked(
      *server_,
      "SELECT Customer.city, date FROM Customer, Order "
      "WHERE date > DATE '1996-07-01' AND Customer.Cid = Order.Cid "
      "AND quantity > 100"));
  EXPECT_EQ(server_->template_cache_stats().entries, 1u);
  EXPECT_EQ(server_->template_cache_stats().misses, 1u);
}

TEST_F(ServeTest, IngestFallsBackAndRefreshHitsAgain) {
  const std::string q4 = fill(kQ4Shape, "100");
  EXPECT_FALSE(serve_checked(*server_, q4));
  EXPECT_TRUE(serve_checked(*server_, q4));

  Rng rng(99);
  server_->ingest("Order", {}, rng);
  EXPECT_FALSE(serve_checked(*server_, q4));  // the Q4 view is STALE
  EXPECT_FALSE(server_->serve(q4).rewritten);

  server_->refresh(RefreshMode::kIncremental);
  const CacheStats before = server_->template_cache_stats();
  EXPECT_TRUE(serve_checked(*server_, q4));
  EXPECT_TRUE(server_->serve(q4).rewritten);
  EXPECT_EQ(server_->template_cache_stats().misses, before.misses);
}

TEST_F(ServeTest, TemplateCacheEvictsAtCapacity) {
  // An alias is part of the output shape, so each one is a template.
  const std::size_t n = MvServer::kTemplateCacheCapacity + 5;
  for (std::size_t i = 0; i < n; ++i) {
    const ServeResult r = server_->serve(
        "SELECT Customer.city, count(*) AS c" + std::to_string(i) +
        " FROM Order, Customer WHERE quantity > 100 "
        "AND Order.Cid = Customer.Cid GROUP BY Customer.city");
    ASSERT_TRUE(r.rewritten) << r.refusal;
  }
  const CacheStats stats = server_->template_cache_stats();
  EXPECT_EQ(stats.entries, MvServer::kTemplateCacheCapacity);
  EXPECT_EQ(stats.evictions, 5u);
  EXPECT_EQ(stats.misses, n);
  EXPECT_EQ(server_->rewrite_log().size(), MvServer::kTemplateCacheCapacity);
}

TEST_F(ServeTest, OneTemplateKeepsOneRecord) {
  const std::string shape =
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-$' "
      "AND Order.Cid = Customer.Cid";
  for (int i = 0; i < 10'000; ++i) {
    const int day = 1 + i % 28;
    const ServeResult r =
        server_->serve(fill(shape, std::to_string(day / 10) +
                                       std::to_string(day % 10)));
    ASSERT_TRUE(r.rewritten) << r.refusal;
  }
  EXPECT_EQ(server_->rewrite_log().size(), 1u);
  EXPECT_EQ(server_->template_cache_stats().misses, 1u);
  for (const RewriteRecord& r : server_->rewrite_log()) {
    EXPECT_TRUE(implies(r.query_pred, r.view_pred, r.joint));
  }
}

// A cached fallback hands every serve it answers the same refusal list,
// so results and journal events hold a reference, not a copy.
TEST_F(ServeTest, FallbacksOfOneTemplateShareTheirRefusals) {
  const ServeResult first =
      server_->serve("SELECT name FROM Division WHERE city = 'LA'");
  const ServeResult second =
      server_->serve("SELECT name FROM Division WHERE city = 'SF'");
  ASSERT_FALSE(first.rewritten);
  ASSERT_FALSE(second.rewritten);
  ASSERT_FALSE(first.refusals.empty());
  EXPECT_EQ(server_->template_cache_stats().hits, 1u);
  EXPECT_TRUE(second.refusals.shares(first.refusals));
  if (server_->observatory() != nullptr) {
    const std::vector<JournalEvent> events =
        server_->observatory()->journal()->events();
    ASSERT_FALSE(events.empty());
    EXPECT_TRUE(events.back().refusals.shares(first.refusals));
  }
}

// ---- Shape cache ------------------------------------------------------------

// An anchor reuses its order only when no literal can reorder or merge
// its conjuncts; either way instantiate() is bind() of the same text.
TEST(BoundShapeTest, ReusesOrderOnlyWhenNoLiteralCanChangeIt) {
  const Catalog catalog = make_paper_catalog();
  struct Case {
    std::string shape;
    std::vector<std::string> literals;  // the first binds the anchor
    bool reuses;
  };
  const std::vector<Case> cases = {
      {"SELECT Product.name FROM Product, Division WHERE Division.city = "
       "'$' AND Product.Did = Division.Did AND Product.Pid > 7",
       {"LA", "O''Brien", "", "zz"},
       true},
      {"SELECT name FROM Product WHERE Pid > $ AND Pid >= 3",
       {"5", "2", "3", "9007199254740993"},
       true},
      {"SELECT name FROM Product WHERE NOT Pid > $ AND Did = 2",
       {"5", "1", "50"},
       true},
      // Equal slot-bearing texts: the literals order and merge them.
      {"SELECT name FROM Product WHERE Pid > $ AND Pid > 5",
       {"5", "6", "4", "5"},
       false},
      {"SELECT name FROM Product WHERE Pid > $ OR Pid > 10",
       {"5", "10", "50"},
       false},
      // A literal first: the texts differ only after it.
      {"SELECT name FROM Product WHERE $ < Pid AND Did = 2",
       {"5", "1", "50"},
       false},
  };
  for (const Case& c : cases) {
    const BoundShape shape(parse_adhoc(catalog, fill(c.shape, c.literals[0])));
    EXPECT_EQ(shape.reuses_order(), c.reuses) << c.shape;
    for (const std::string& literal : c.literals) {
      const std::string sql = fill(c.shape, literal);
      EXPECT_EQ(spec_mismatch(shape.instantiate("adhoc-x",
                                                literal_values(
                                                    lex(sql).tokens)),
                              parse_adhoc(catalog, sql)),
                "")
          << sql;
    }
  }
}

class ShapeCacheTest : public ServeTest {
 protected:
  /// Bind `sql` through the server and hold the spec to parse_adhoc's,
  /// field by field. Returns whether the bind hit the shape cache.
  bool bind_checked(const std::string& sql) {
    const std::uint64_t hits = server_->shape_cache_stats().hits;
    const QuerySpec bound = server_->bind(sql);
    const bool hit = server_->shape_cache_stats().hits > hits;
    EXPECT_EQ(spec_mismatch(bound, parse_adhoc(server_->catalog(), sql)), "")
        << sql;
    EXPECT_EQ(bound.name().rfind("adhoc-", 0), 0u) << bound.name();
    return hit;
  }

  /// The message parse_adhoc throws for `sql`, checking the server's
  /// bind throws the same exception type with the same text.
  template <typename E>
  std::string same_error(const std::string& sql) {
    std::string expected;
    try {
      parse_adhoc(server_->catalog(), sql);
    } catch (const E& e) {
      expected = e.what();
    }
    EXPECT_FALSE(expected.empty()) << sql << " did not throw";
    try {
      server_->bind(sql);
      ADD_FAILURE() << sql << " bound through the shape cache";
    } catch (const E& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
    return expected;
  }
};

// Same-shape conjuncts: normalize() orders and deduplicates them by their
// full text, so order and dedup follow the literals, not the shape.
TEST_F(ShapeCacheTest, LiteralDependentOrderAndDedup) {
  const std::string disjunction =
      "SELECT name FROM Product WHERE Product.Pid > $ OR Product.Pid > 10";
  EXPECT_FALSE(bind_checked(fill(disjunction, "5")));
  for (const char* v : {"10", "50", "9", "100", "1", "10"}) {
    EXPECT_TRUE(bind_checked(fill(disjunction, v))) << v;
  }
  const std::string twice =
      "SELECT name FROM Product WHERE Pid > $ AND Did = 1 AND Pid > 5";
  EXPECT_FALSE(bind_checked(fill(twice, "5")));  // one conjunct written twice
  for (const char* v : {"6", "4", "5", "50"}) {
    EXPECT_TRUE(bind_checked(fill(twice, v))) << v;
  }
  // The answers follow the literals too.
  for (const char* v : {"5", "10", "50"}) {
    const std::string sql = fill(disjunction, v);
    EXPECT_TRUE(same_bag(
        server_->serve(sql).table,
        server_->serve(parse_adhoc(server_->catalog(), sql),
                       ServePath::kBaseOnly)
            .table))
        << sql;
  }
}

// Double literals that differ past the sixth digit are two conjuncts on
// the shape path as on parse_adhoc's, and order and dedup follow them.
TEST_F(ShapeCacheTest, CloseDoubleLiterals) {
  const std::string shape =
      "SELECT name FROM Product WHERE Pid > $ AND Pid > 1234567.9";
  EXPECT_FALSE(bind_checked(fill(shape, "1234567.8")));
  for (const char* v : {"1234567.85", "1234567.95", "1234567.9"}) {
    EXPECT_TRUE(bind_checked(fill(shape, v))) << v;
  }
  const auto conjuncts = [&](const char* v) {
    return server_->bind(fill(shape, v)).canonical_conjuncts().size();
  };
  EXPECT_EQ(conjuncts("1234567.8"), 2u);
  EXPECT_EQ(conjuncts("1234567.9"), 1u);  // one conjunct written twice
}

TEST_F(ShapeCacheTest, DateLiterals) {
  const std::string shape =
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '$' AND Order.Cid = Customer.Cid";
  EXPECT_FALSE(bind_checked(fill(shape, "1996-07-01")));
  EXPECT_TRUE(bind_checked(fill(shape, "1996-01-31")));
  EXPECT_TRUE(bind_checked(fill(shape, "2001-12-01")));
  // The prefix is DATE in any case: one shape.
  std::string lower = fill(shape, "1996-08-15");
  lower.replace(lower.find("DATE"), 4, "date");
  EXPECT_TRUE(bind_checked(lower));

  // A malformed date on a cached shape throws the parser's error, every
  // time, and nothing is cached for it.
  const CacheStats before = server_->shape_cache_stats();
  for (int i = 0; i < 2; ++i) {
    EXPECT_NE(same_error<ParseError>(fill(shape, "1996-13-01"))
                  .find("malformed date literal '1996-13-01'"),
              std::string::npos);
    same_error<ParseError>(fill(shape, "96"));
  }
  EXPECT_EQ(server_->shape_cache_stats().entries, before.entries);
  EXPECT_THROW(server_->serve(fill(shape, "1996/07/01")), ParseError);
  EXPECT_TRUE(bind_checked(fill(shape, "1996-07-02")));
}

TEST_F(ShapeCacheTest, QuotedStrings) {
  const std::string shape = "SELECT name FROM Division WHERE city = '$'";
  EXPECT_FALSE(bind_checked(fill(shape, "LA")));
  EXPECT_TRUE(bind_checked(fill(shape, "O''Brien")));
  EXPECT_TRUE(bind_checked(fill(shape, "''")));
  EXPECT_TRUE(bind_checked(fill(shape, "")));
  const QuerySpec q = server_->bind(fill(shape, "O''Brien"));
  ASSERT_EQ(q.template_slots().size(), 1u);
  EXPECT_EQ(q.template_slots()[0].as_string(), "O'Brien");
}

TEST_F(ShapeCacheTest, BooleanLiterals) {
  const std::string shape =
      "SELECT name FROM Division WHERE city = 'LA' OR Did = $";
  EXPECT_FALSE(bind_checked(fill(shape, "TRUE")));
  EXPECT_TRUE(bind_checked(fill(shape, "FALSE")));
  EXPECT_TRUE(bind_checked(fill(shape, "true")));
  EXPECT_EQ(server_->shape_cache_stats().entries, 1u);
}

// Integer and double literals are different lexical types, so one
// position holding each is two shapes, and each binds its own type.
TEST_F(ShapeCacheTest, IntegerAndDoubleInOnePosition) {
  const std::string shape = "SELECT name FROM Product WHERE Pid > $";
  EXPECT_FALSE(bind_checked(fill(shape, "5")));
  EXPECT_FALSE(bind_checked(fill(shape, "5.0")));
  EXPECT_TRUE(bind_checked(fill(shape, "5.5")));
  EXPECT_TRUE(bind_checked(fill(shape, "7")));
  EXPECT_TRUE(bind_checked(fill(shape, "9007199254740993")));
  EXPECT_EQ(server_->shape_cache_stats().entries, 2u);
  EXPECT_EQ(server_->bind(fill(shape, "7.0")).template_slots()[0].type(),
            ValueType::kDouble);
}

// A negative literal is one literal of its lexical type, so it shares
// the shape of its positive twin and a cached shape substitutes it.
TEST_F(ShapeCacheTest, NegativeLiterals) {
  const std::string shape = "SELECT name FROM Product WHERE Pid > $";
  EXPECT_FALSE(bind_checked(fill(shape, "5")));
  EXPECT_TRUE(bind_checked(fill(shape, "-5")));
  EXPECT_TRUE(bind_checked(fill(shape, "-9223372036854775808")));
  EXPECT_FALSE(bind_checked(fill(shape, "-2.5")));
  EXPECT_TRUE(bind_checked(fill(shape, "2.5")));
  EXPECT_EQ(server_->shape_cache_stats().entries, 2u);
  EXPECT_EQ(server_->bind(fill(shape, "-7")).template_slots()[0].as_int64(),
            -7);
  const CacheStats before = server_->shape_cache_stats();
  same_error<ParseError>(fill(shape, "0 - 5"));
  same_error<ParseError>(fill(shape, "- 5"));
  EXPECT_EQ(server_->shape_cache_stats().entries, before.entries);
}

TEST_F(ShapeCacheTest, KeywordCaseAndWhitespaceShareAShape) {
  EXPECT_FALSE(bind_checked("SELECT name FROM Product WHERE Pid > 5"));
  EXPECT_TRUE(bind_checked("select name from Product where Pid>6"));
  EXPECT_TRUE(bind_checked("  Select\tname\nFROM   Product WhErE Pid >\n7 "));
  EXPECT_EQ(server_->shape_cache_stats().entries, 1u);
}

// FROM and WHERE orders are different texts, so different shapes, but one
// template: both shapes share one template-cache entry.
TEST_F(ShapeCacheTest, ReordersAreTwoShapesOneTemplate) {
  const std::string a =
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > $ AND Order.Cid = Customer.Cid";
  const std::string b =
      "SELECT Customer.city, date FROM Customer, Order "
      "WHERE Customer.Cid = Order.Cid AND quantity > $";
  for (const char* v : {"120", "150"}) {
    for (const std::string& shape : {a, b}) {
      bind_checked(fill(shape, v));
      server_->serve(fill(shape, v));
    }
  }
  EXPECT_EQ(server_->shape_cache_stats().entries, 2u);
  EXPECT_EQ(server_->template_cache_stats().entries, 1u);
}

TEST_F(ShapeCacheTest, ErrorsAreNeverCached) {
  for (int i = 0; i < 2; ++i) {
    same_error<BindError>("SELECT bogus FROM Product WHERE Pid > 5");
    same_error<CatalogError>("SELECT name FROM Nope WHERE Pid > 5");
    same_error<ParseError>("SELECT name FROM Product WHERE Pid >");
    same_error<ParseError>(
        "SELECT name FROM Product WHERE Pid > 99999999999999999999");
  }
  const CacheStats stats = server_->shape_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(ShapeCacheTest, EvictsAtCapacity) {
  // An alias is part of the text, so each one is a shape.
  const std::size_t n = MvServer::kShapeCacheCapacity + 5;
  for (std::size_t i = 0; i < n; ++i) {
    server_->bind("SELECT count(*) AS c" + std::to_string(i) +
                  " FROM Product WHERE Pid > 5");
  }
  CacheStats stats = server_->shape_cache_stats();
  EXPECT_EQ(stats.entries, MvServer::kShapeCacheCapacity);
  EXPECT_EQ(stats.evictions, 5u);
  EXPECT_EQ(stats.misses, n);
  // The oldest went first; the newest is still there.
  EXPECT_FALSE(bind_checked("SELECT count(*) AS c0 FROM Product WHERE Pid > 6"));
  EXPECT_TRUE(bind_checked("SELECT count(*) AS c" + std::to_string(n - 1) +
                           " FROM Product WHERE Pid > 6"));
  stats = server_->shape_cache_stats();
  EXPECT_EQ(stats.entries, MvServer::kShapeCacheCapacity);
  EXPECT_EQ(stats.evictions, 6u);
}

// A key longer than kMaxCacheKeyBytes is never stored: long shapes are
// parsed, bound and matched on every request, leave both caches empty,
// count as oversize, and answer as the base tables do. A shape just under
// the bound is stored and hit as usual.
TEST_F(ShapeCacheTest, OversizeKeysAreServedUncached) {
  // One shape per term count: an OR of `terms` equalities on Pid.
  const auto long_sql = [](std::size_t terms, int first) {
    std::string sql =
        "SELECT name FROM Product WHERE Pid = " + std::to_string(first);
    for (std::size_t i = 1; i < terms; ++i) {
      sql += " OR Pid = " + std::to_string(first + static_cast<int>(i));
    }
    return sql;
  };
  set_trace_level(TraceLevel::kCounters);
  MetricsRegistry::global().reset();
  std::size_t served = 0;
  for (std::size_t terms = 400; terms < 405; ++terms) {
    const std::string sql = long_sql(terms, static_cast<int>(terms));
    ASSERT_GT(lex(sql).shape.size(), kMaxCacheKeyBytes);
    for (int repeat = 0; repeat < 2; ++repeat) {
      const ServeResult got = server_->serve(sql);
      const ServeResult base = server_->serve(
          parse_adhoc(server_->catalog(), sql), ServePath::kBaseOnly);
      EXPECT_TRUE(same_bag(got.table, base.table)) << terms;
      ++served;
    }
  }
  const CacheStats shapes = server_->shape_cache_stats();
  const CacheStats templates = server_->template_cache_stats();
  const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();
  set_trace_level(std::nullopt);
  EXPECT_EQ(shapes.entries, 0u);
  EXPECT_EQ(shapes.hits, 0u);
  EXPECT_EQ(shapes.oversize, served);
  EXPECT_EQ(templates.entries, 0u);
  EXPECT_EQ(templates.oversize, served);
  EXPECT_EQ(metrics.metrics.at("serve/shape_cache/oversize").value,
            static_cast<double>(served));
  EXPECT_EQ(metrics.metrics.at("serve/template_cache/oversize").value,
            static_cast<double>(served));

  // The longest shape under the bound is stored, and hit with new literals.
  std::size_t terms = 1;
  while (lex(long_sql(terms + 1, 0)).shape.size() <= kMaxCacheKeyBytes) {
    ++terms;
  }
  ASSERT_GT(lex(long_sql(terms, 0)).shape.size() + 16, kMaxCacheKeyBytes);
  EXPECT_FALSE(bind_checked(long_sql(terms, 0)));
  EXPECT_TRUE(bind_checked(long_sql(terms, 1000)));
  EXPECT_EQ(server_->shape_cache_stats().entries, 1u);
  EXPECT_EQ(server_->shape_cache_stats().oversize, served);
}

// A hit records one serve.shape span where a miss records serve.parse and
// serve.bind, and the serve/shape_cache/* counters follow the lookups.
TEST_F(ShapeCacheTest, HitSpansAndCounters) {
  set_trace_level(TraceLevel::kSpans);
  MetricsRegistry::global().reset();
  Tracer::global().clear();
  const auto spans = [] {
    std::map<std::string, int> count;
    const Json events = Tracer::global().to_chrome_json().at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Json& e = events.at(i);
      if (e.at("ph").as_string() == "X" && e.at("cat").as_string() == "serve") {
        ++count[e.at("name").as_string()];
      }
    }
    return count;
  };
  server_->serve("SELECT name FROM Division WHERE city = 'LA'");
  std::map<std::string, int> miss = spans();
  server_->serve("SELECT name FROM Division WHERE city = 'SF'");
  std::map<std::string, int> hit = spans();
  const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();
  set_trace_level(std::nullopt);

  EXPECT_EQ(miss["parse"], 1);
  EXPECT_EQ(miss["shape"], 0);
  EXPECT_EQ(hit["parse"], 1);
  EXPECT_EQ(hit["shape"], 1);
  EXPECT_EQ(miss["bind"], 1);
  EXPECT_EQ(hit["bind"], 1);
  EXPECT_EQ(hit["exec"], 2);
  EXPECT_EQ(metrics.metrics.at("serve/shape_cache/hits").value, 1);
  EXPECT_EQ(metrics.metrics.at("serve/shape_cache/misses").value, 1);
  EXPECT_EQ(metrics.metrics.at("serve/shape_cache/entries").value, 1);
}

// serve_covered's traffic over the design it serves (the Yang heuristic's
// views tmp5 and tmp6): after warm-up nearly every request is a hit.
TEST(TemplateCacheHitRateTest, ServeCoveredLiteralsHit) {
  DesignerOptions options;
  options.cost = paper_cost_config();
  options.algorithm = DesignerOptions::Algorithm::kYang;
  WarehouseDesigner designer(make_paper_catalog(), options);
  designer.add_query("Q1", 10.0,
                     "SELECT Product.name FROM Product, Division "
                     "WHERE Division.city = 'LA' AND Product.Did = Division.Did");
  designer.add_query("Q2", 0.5,
                     "SELECT Part.name FROM Product, Part, Division "
                     "WHERE Division.city = 'LA' AND Product.Did = Division.Did "
                     "AND Part.Pid = Product.Pid");
  designer.add_query("Q3", 0.8,
                     "SELECT Customer.name, Product.name, quantity "
                     "FROM Product, Division, Order, Customer "
                     "WHERE Division.city = 'LA' AND Product.Did = Division.Did "
                     "AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid "
                     "AND date > DATE '1996-07-01'");
  designer.add_query("Q4", 5.0,
                     "SELECT Customer.city, date FROM Order, Customer "
                     "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const Database db = populate_paper_database(0.02, 17);
  ServeOptions serve;
  serve.mode = ExecMode::kVectorized;
  serve.threads = 1;
  serve.rewrite = true;
  MvServer server(designer.catalog(), designer.design(), db, serve);
  std::set<std::string> views;
  for (const DeployedView& v : server.snapshot()->registry.views()) {
    views.insert(v.def.name);
  }
  EXPECT_EQ(views, (std::set<std::string>{"tmp5", "tmp6"}));

  const auto city = [](std::int64_t c) {
    return c == 0 ? std::string("LA")
                  : c == 1 ? std::string("SF") : "city_" + std::to_string(c);
  };
  const auto products =
      static_cast<std::int64_t>(db.table("Product").row_count());
  Rng rng(7);
  const auto request = [&] {
    if (rng.chance(10.0 / 15.0)) {
      return "SELECT Product.name FROM Product, Division "
             "WHERE Division.city = 'LA' AND Product.Did = Division.Did "
             "AND Product.Pid > " +
             std::to_string(rng.uniform_int(0, products - 1));
    }
    const std::int64_t quantity = rng.uniform_int(100, 199);
    return "SELECT Customer.city, date FROM Order, Customer "
           "WHERE quantity > " +
           std::to_string(quantity) +
           " AND Order.Cid = Customer.Cid AND Customer.city = '" +
           city(rng.uniform_int(0, 49)) + "'";
  };
  for (int i = 0; i < 200; ++i) server.serve(request());
  const CacheStats warm = server.template_cache_stats();
  const int n = 2'000;
  for (int i = 0; i < n; ++i) {
    const std::string sql = request();
    const ServeResult r = server.serve(sql);
    ASSERT_TRUE(r.rewritten) << sql << ": " << r.refusal;
  }
  const double hits =
      static_cast<double>(server.template_cache_stats().hits - warm.hits);
  EXPECT_GE(hits / n, 0.99);
}

// ---- Concurrency: the snapshot/epoch contract (also run under TSan) --------

TEST(MvserveTsanTest, ReadersNeverObserveTornSnapshots) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  const std::vector<QuerySpec> queries = designer.queries();

  // Once per engine: the vectorized one also shares each reader's column
  // cache with tables the writer may clone.
  for (const ExecMode mode : {ExecMode::kRow, ExecMode::kVectorized}) {
    SCOPED_TRACE(exec_mode_name(mode));
    ServeOptions options;
    options.mode = mode;
    MvServer server(designer.catalog(), design,
                    populate_paper_database(0.005, 31), options);

    std::atomic<bool> done{false};
    std::atomic<int> mixes{0};
    std::atomic<int> served{0};

    // Readers pin a snapshot and check its internal consistency: on one
    // snapshot, the view path and the base path must agree — a torn swap
    // (views from one epoch, bases from another) shows up as a mismatch.
    // Reader 0 serves from its own copy of the pinned database, so the
    // share counts the writer's clone check reads change under it.
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        // Run until the writer quiesces, but at least a few rounds even if
        // the writer wins the race — the consistency check must execute.
        std::size_t i = static_cast<std::size_t>(t);
        while (i < static_cast<std::size_t>(t) + 6 ||
               !done.load(std::memory_order_acquire)) {
          const QuerySpec& q = queries[i++ % queries.size()];
          std::shared_ptr<const ServeSnapshot> snap = server.snapshot();
          if (t == 0) {
            auto copy = std::make_shared<ServeSnapshot>(*snap);
            copy->db = std::make_shared<const Database>(*snap->db);
            snap = std::move(copy);
          }
          const ServeResult a = server.serve_on(snap, q);
          const ServeResult b =
              server.serve_on(snap, q, ServePath::kBaseOnly);
          if (!same_bag(a.table, b.table)) mixes.fetch_add(1);
          served.fetch_add(1);
        }
      });
    }

    // Writer: update + refresh in one atomic publish per round,
    // alternating refresh modes and touched relations.
    Rng rng(77);
    for (int round = 0; round < 6; ++round) {
      const char* relation = (round % 2 == 0) ? "Order" : "Customer";
      const RefreshMode refresh = (round % 2 == 0) ? RefreshMode::kIncremental
                                                   : RefreshMode::kRecompute;
      server.update_and_refresh(relation, {}, rng, refresh);
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(mixes.load(), 0);
    EXPECT_GT(served.load(), 0);
    EXPECT_EQ(server.epoch(), 6u);

    // After the writer quiesces, every view is VALID again and serves the
    // final state.
    for (const QuerySpec& q : queries) {
      const ServeResult r = server.serve(q);
      EXPECT_TRUE(r.rewritten) << q.name() << ": " << r.refusal;
      EXPECT_TRUE(
          same_bag(r.table, server.serve(q, ServePath::kBaseOnly).table))
          << q.name();
    }
  }
}

// Readers outlive the snapshots they serve from: each reader holds its
// snapshot until the writer has published two newer ones (so the writer
// no longer holds it either) and serves from it once more, so the last
// reference to each old snapshot drops on a reader thread. That frees
// the rows the newer versions did not keep (and, on vec, the old tables'
// columnar forms) while the writer shares the kept ones.
TEST(MvserveTsanTest, ReadersReleaseOldSnapshotsWhileTheWriterRefreshes) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  const std::vector<QuerySpec> queries = designer.queries();

  for (const ExecMode mode : {ExecMode::kRow, ExecMode::kVectorized}) {
    SCOPED_TRACE(exec_mode_name(mode));
    ServeOptions options;
    options.mode = mode;
    MvServer server(designer.catalog(), design,
                    populate_paper_database(0.005, 53), options);

    std::atomic<bool> done{false};
    std::atomic<int> holders{0};  // readers holding a snapshot
    std::atomic<int> mixes{0};
    std::atomic<int> outlived{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        std::size_t i = static_cast<std::size_t>(t);
        while (!done.load(std::memory_order_acquire)) {
          const QuerySpec& q = queries[i++ % queries.size()];
          std::shared_ptr<const ServeSnapshot> snap = server.snapshot();
          holders.fetch_add(1);
          if (!same_bag(server.serve_on(snap, q).table,
                        server.serve_on(snap, q, ServePath::kBaseOnly).table)) {
            mixes.fetch_add(1);
          }
          while (server.epoch() < snap->epoch + 2 &&
                 !done.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          const bool past = server.epoch() >= snap->epoch + 2;
          if (past &&
              !same_bag(server.serve_on(snap, q).table,
                        server.serve_on(snap, q, ServePath::kBaseOnly).table)) {
            mixes.fetch_add(1);
          }
          snap.reset();  // once past, the writer no longer holds it either
          holders.fetch_sub(1);
          if (past) outlived.fetch_add(1);
        }
      });
    }

    // Writer: incremental refreshes (the delta path shares kept rows)
    // with a recompute mixed in, each while a reader holds a snapshot.
    Rng rng(91);
    for (int round = 0; round < 8; ++round) {
      while (holders.load() == 0) std::this_thread::yield();
      const char* relation = (round % 2 == 0) ? "Order" : "Customer";
      const RefreshMode refresh = round == 5 ? RefreshMode::kRecompute
                                             : RefreshMode::kIncremental;
      server.update_and_refresh(relation, {0.02, 0.02, 0.02}, rng, refresh);
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(mixes.load(), 0);
    EXPECT_GT(outlived.load(), 0);
    EXPECT_EQ(server.epoch(), 8u);
  }
}

TEST(MvserveTsanTest, ConcurrentServesShareOneSnapshotSafely) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  MvServer server(designer.catalog(), design,
                  populate_paper_database(0.005, 47));
  const std::vector<QuerySpec> queries = designer.queries();

  // Purely concurrent readers (no writer): every serve's executor scans
  // the columnar forms the snapshot's tables keep, so readers fill and
  // read them concurrently.
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const QuerySpec& q = queries[(t + i) % queries.size()];
        const ServeResult hit = server.serve(q);
        const ServeResult base = server.serve(q, ServePath::kBaseOnly);
        if (!hit.rewritten || !same_bag(hit.table, base.table)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Readers share templates while a writer ingests and refreshes, so
// entries are filled, hit and replaced concurrently under several
// VALID-view sets. Every decision must be the matcher's on the reader's
// own pinned snapshot.
TEST(MvserveTsanTest, TemplateCacheUnderConcurrentServes) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  ServeOptions options;
  options.mode = ExecMode::kVectorized;
  MvServer server(designer.catalog(), design,
                  populate_paper_database(0.005, 31), options);
  const std::vector<std::string> shapes = {
      kQ4Shape,
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-$' "
      "AND Order.Cid = Customer.Cid",
      "SELECT Product.name FROM Product, Division "
      "WHERE Product.Did = Division.Did AND Division.city = 'LA' "
      "AND Product.Pid > $",
      "SELECT name FROM Division WHERE city = 'city_$'"};

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      int i = 0;
      while (i < 40 || !done.load(std::memory_order_acquire)) {
        const std::string& shape = shapes[static_cast<std::size_t>(i++) %
                                          shapes.size()];
        const std::string sql =
            fill(shape, std::to_string(rng.uniform_int(10, 28)) +
                            (shape == shapes[0] ? "0" : ""));
        const auto snap = server.snapshot();
        const QuerySpec q = parse_adhoc(server.catalog(), sql);
        const ServeResult r = server.serve_on(snap, q);
        if (!decision_mismatch(server, *snap, q, r).empty()) {
          mismatches.fetch_add(1);
        }
        served.fetch_add(1);
      }
    });
  }
  Rng rng(77);
  for (int round = 0; round < 6; ++round) {
    server.ingest(round % 2 == 0 ? "Order" : "Division", {}, rng);
    server.refresh(round % 2 == 0 ? RefreshMode::kIncremental
                                  : RefreshMode::kRecompute);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(served.load(), 0);
  const CacheStats stats = server.template_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  for (const RewriteRecord& r : server.rewrite_log()) {
    EXPECT_TRUE(implies(r.query_pred, r.view_pred, r.joint)) << r.query;
  }
}

// Readers serve SQL text of a few shapes with fresh literals while a
// writer refreshes, and bind fillers of distinct shapes, so shape entries
// are filled, hit and evicted concurrently. Every answer must be the base
// path's on the reader's pinned snapshot, and every instantiated spec
// parse_adhoc's.
TEST(MvserveTsanTest, ShapeCacheUnderConcurrentServes) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  ServeOptions options;
  options.mode = ExecMode::kVectorized;
  MvServer server(designer.catalog(), design,
                  populate_paper_database(0.005, 37), options);
  const std::vector<std::string> shapes = {
      kQ4Shape,
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-$' "
      "AND Order.Cid = Customer.Cid",
      "SELECT Product.name FROM Product, Division "
      "WHERE Product.Did = Division.Did AND Division.city = 'LA' "
      "AND Product.Pid > $",
      "SELECT name FROM Division WHERE city = 'city_$'"};
  // Together the readers bind more distinct filler shapes than fit.
  const int fillers = static_cast<int>(MvServer::kShapeCacheCapacity / 4) + 40;

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + static_cast<std::uint64_t>(t));
      int i = 0;
      while (i < fillers || !done.load(std::memory_order_acquire)) {
        const std::string& shape = shapes[static_cast<std::size_t>(i) %
                                          shapes.size()];
        const std::string sql =
            fill(shape, std::to_string(rng.uniform_int(10, 28)) +
                            (shape == shapes[0] ? "0" : ""));
        const auto snap = server.snapshot();
        const QuerySpec q = server.bind(sql);
        const QuerySpec ref = parse_adhoc(server.catalog(), sql);
        const ServeResult r = server.serve_on(snap, q);
        if (!spec_mismatch(q, ref).empty() ||
            !same_bag(r.table,
                      server.serve_on(snap, ref, ServePath::kBaseOnly).table)) {
          mismatches.fetch_add(1);
        }
        served.fetch_add(1);
        const std::string filler = "SELECT count(*) AS f" + std::to_string(t) +
                                   "_" + std::to_string(i) +
                                   " FROM Product WHERE Pid > " +
                                   std::to_string(rng.uniform_int(0, 99));
        if (!spec_mismatch(server.bind(filler),
                           parse_adhoc(server.catalog(), filler))
                 .empty()) {
          mismatches.fetch_add(1);
        }
        ++i;
      }
    });
  }
  Rng rng(78);
  for (int round = 0; round < 6; ++round) {
    server.update_and_refresh(round % 2 == 0 ? "Order" : "Division", {}, rng,
                              round % 2 == 0 ? RefreshMode::kIncremental
                                             : RefreshMode::kRecompute);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(served.load(), 0);
  const CacheStats stats = server.shape_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, MvServer::kShapeCacheCapacity);
}

}  // namespace
}  // namespace mvd
