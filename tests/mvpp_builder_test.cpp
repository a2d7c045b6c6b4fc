// Tests for src/mvpp/builder: the Figure 4 merge algorithm — ordering,
// rotation, subtree reuse, pushdown with disjunctions/unions, residuals.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/lint/lint.hpp"
#include "src/mvpp/builder.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest()
      : example_(make_paper_example()),
        model_(example_.catalog, paper_cost_config()),
        optimizer_(model_),
        builder_(optimizer_) {}

  PaperExample example_;
  CostModel model_;
  Optimizer optimizer_;
  MvppBuilder builder_;
};

TEST_F(BuilderTest, InitialOrderDescendingFqTimesCa) {
  const std::vector<std::size_t> order =
      builder_.initial_order(example_.queries);
  ASSERT_EQ(order.size(), 4u);
  double prev = 1e300;
  for (std::size_t idx : order) {
    const QuerySpec& q = example_.queries[idx];
    const double score =
        q.frequency() * model_.full_cost(optimizer_.optimize(q));
    EXPECT_LE(score, prev + 1e-9);
    prev = score;
  }
}

TEST_F(BuilderTest, BuildValidatesOrder) {
  EXPECT_THROW(builder_.build(example_.queries, {0, 1}), PlanError);
  EXPECT_THROW(builder_.build(example_.queries, {0, 1, 2, 2}), PlanError);
  EXPECT_THROW(builder_.build({}, {}), PlanError);
}

TEST_F(BuilderTest, EveryQueryGetsARoot) {
  const MvppBuildResult r =
      builder_.build(example_.queries, {0, 1, 2, 3});
  EXPECT_EQ(r.graph.query_ids().size(), 4u);
  for (const QuerySpec& q : example_.queries) {
    const NodeId root = r.graph.find_by_name(q.name());
    ASSERT_GE(root, 0) << q.name();
    EXPECT_EQ(r.graph.node(root).kind, MvppNodeKind::kQuery);
    EXPECT_DOUBLE_EQ(r.graph.node(root).frequency, q.frequency());
  }
  r.graph.validate();
}

TEST_F(BuilderTest, SharedJoinPatternReused) {
  // Q1 (P |x| D) and Q2 (P |x| D |x| Pt) share the P |x| D join node.
  const MvppBuildResult r =
      builder_.build(example_.queries, {0, 1, 2, 3});
  const MvppGraph& g = r.graph;
  int pd_joins = 0;
  for (const MvppNode& n : g.nodes()) {
    if (n.kind != MvppNodeKind::kJoin) continue;
    std::set<std::string> bases;
    for (NodeId b : g.bases_under(n.id)) bases.insert(g.node(b).relation);
    if (bases == std::set<std::string>{"Product", "Division"}) ++pd_joins;
  }
  EXPECT_EQ(pd_joins, 1);
  // That single join must serve Q1, Q2 and Q3.
  for (const MvppNode& n : g.nodes()) {
    if (n.kind != MvppNodeKind::kJoin) continue;
    if (g.bases_under(n.id).size() == 2) {
      std::set<std::string> bases;
      for (NodeId b : g.bases_under(n.id)) bases.insert(g.node(b).relation);
      if (bases == std::set<std::string>{"Product", "Division"}) {
        EXPECT_EQ(g.queries_using(n.id).size(), 3u);
      }
    }
  }
}

TEST_F(BuilderTest, RotationsProduceOnePerQuery) {
  const std::vector<MvppBuildResult> rotations =
      builder_.build_all_rotations(example_.queries);
  ASSERT_EQ(rotations.size(), 4u);
  // Each rotation starts with a different query.
  std::set<std::string> firsts;
  for (const MvppBuildResult& r : rotations) {
    firsts.insert(r.merge_order.front());
  }
  EXPECT_EQ(firsts.size(), 4u);
}

TEST_F(BuilderTest, MergeOrderAffectsStructure) {
  const std::vector<MvppBuildResult> rotations =
      builder_.build_all_rotations(example_.queries);
  std::set<std::size_t> op_counts;
  for (const MvppBuildResult& r : rotations) {
    op_counts.insert(r.graph.operation_ids().size());
  }
  // The Figure 6 observation: rotations differ structurally.
  EXPECT_GE(op_counts.size(), 2u);
}

TEST_F(BuilderTest, IdenticalSelectionsPushDownExactly) {
  // All original queries filter Division on city='LA' only; the shared
  // leaf select is exactly that condition and no residual reapplies it.
  const MvppBuildResult r = builder_.build(example_.queries, {0, 1, 2, 3});
  const MvppGraph& g = r.graph;
  int division_selects = 0;
  for (const MvppNode& n : g.nodes()) {
    if (n.kind != MvppNodeKind::kSelect) continue;
    const auto cols = columns_of(n.predicate);
    if (cols.contains("Division.city")) {
      ++division_selects;
      EXPECT_EQ(normalize(n.predicate)->to_string(),
                "(Division.city = 'LA')");
    }
  }
  EXPECT_EQ(division_selects, 1);
}

TEST_F(BuilderTest, DifferentSelectionsBecomeDisjunctionPlusResiduals) {
  const std::vector<QuerySpec> variant =
      make_pushdown_variant_queries(example_.catalog);
  const MvppBuildResult r =
      builder_.build(variant, builder_.initial_order(variant));
  const MvppGraph& g = r.graph;

  // The Division leaf carries the disjunction of all three conditions.
  bool found_disjunction = false;
  for (const MvppNode& n : g.nodes()) {
    if (n.kind != MvppNodeKind::kSelect) continue;
    const std::string p = normalize(n.predicate)->to_string();
    if (p.find("OR") != std::string::npos &&
        p.find("Division.city = 'LA'") != std::string::npos &&
        p.find("Division.city = 'SF'") != std::string::npos &&
        p.find("Division.name = 'Re'") != std::string::npos) {
      found_disjunction = true;
      // It must sit directly on the Division leaf.
      EXPECT_EQ(g.node(n.children[0]).kind, MvppNodeKind::kBase);
    }
  }
  EXPECT_TRUE(found_disjunction);

  // Q1 re-applies city='LA' above the shared joins.
  const NodeId q1 = g.find_by_name("Q1");
  bool residual = false;
  for (NodeId v : g.descendants(q1)) {
    const MvppNode& n = g.node(v);
    if (n.kind == MvppNodeKind::kSelect && g.bases_under(v).size() > 1 &&
        normalize(n.predicate)->to_string() == "(Division.city = 'LA')") {
      residual = true;
    }
  }
  EXPECT_TRUE(residual);
}

TEST_F(BuilderTest, ProjectionPushdownKeepsJoinAttributes) {
  const MvppBuildResult r = builder_.build(example_.queries, {0, 1, 2, 3});
  const MvppGraph& g = r.graph;
  // The pushed-down projection over Part keeps Pid (join attr) and name
  // (output attr).
  for (const MvppNode& n : g.nodes()) {
    if (n.kind != MvppNodeKind::kProject) continue;
    const std::vector<NodeId> bases = g.bases_under(n.id);
    if (bases.size() == 1 && g.node(bases[0]).relation == "Part") {
      EXPECT_EQ(std::set<std::string>(n.columns.begin(), n.columns.end()),
                (std::set<std::string>{"Part.name", "Part.Pid"}));
    }
  }
}

TEST_F(BuilderTest, ChooseBestMvppPicksMinimum) {
  const std::vector<MvppBuildResult> rotations =
      builder_.build_all_rotations(example_.queries);
  const MvppChoice best = choose_best_mvpp(rotations);
  for (const MvppBuildResult& r : rotations) {
    const MvppEvaluator eval(r.graph);
    EXPECT_LE(best.selection.costs.total(),
              yang_heuristic(eval).costs.total() + 1e-6);
  }
  EXPECT_THROW(choose_best_mvpp({}), PlanError);
}

TEST_F(BuilderTest, SingleQuerySingleRelation) {
  const QuerySpec q = parse_and_bind(example_.catalog, "S", 2.0,
                                     "SELECT name FROM Product");
  const MvppBuildResult r = builder_.build({q}, {0});
  EXPECT_EQ(r.graph.query_ids().size(), 1u);
  EXPECT_EQ(r.graph.base_ids().size(), 1u);
  r.graph.validate();
}

TEST_F(BuilderTest, GeneratedWorkloadsBuildAndValidate) {
  StarSchemaOptions schema;
  schema.dimensions = 5;
  const Catalog catalog = make_star_catalog(schema);
  const CostModel model(catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    StarQueryOptions qopts;
    qopts.count = 6;
    qopts.max_dimensions = 4;
    qopts.seed = seed;
    const std::vector<QuerySpec> queries =
        generate_star_queries(catalog, schema, qopts);
    for (const MvppBuildResult& r : builder.build_all_rotations(queries)) {
      r.graph.validate();
      EXPECT_EQ(r.graph.query_ids().size(), queries.size());
    }
  }
}

// The design op prices each plan once. One design() of k queries runs k
// join-order searches (one per query, shared by the initial ordering and
// all k rotations, where each rotation used to search every query again:
// k(k+1)), and annotating a graph estimates each plan node once (a query
// root reuses its result node's estimate). The lint hook stays off: its
// estimate-consistent rule re-estimates every node from scratch.
TEST(MvppBuilderTest, OneSearchPerQueryOneEstimatePerNode) {
  set_lint_hook_level(LintHookLevel::kOff);
  set_trace_level(TraceLevel::kSpans);
  MetricsRegistry::global().reset();
  Tracer::global().clear();
  const PaperExample example = make_paper_example();
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(example.catalog, options);
  for (const QuerySpec& q : example.queries) designer.add_query(q);
  const DesignResult design = designer.design();
  const double searches = MetricsRegistry::global()
                              .snapshot()
                              .metrics.at("mvpp/build/join_orders")
                              .value;
  int search_spans = 0;
  const Json events = Tracer::global().to_chrome_json().at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("ph").as_string() == "X" &&
        e.at("cat").as_string() == "optimizer" &&
        e.at("name").as_string() == "join-order") {
      ++search_spans;
    }
  }

  MvppGraph graph = design.graph();
  MetricsRegistry::global().reset();
  graph.annotate(CostModel(example.catalog, paper_cost_config()));
  const double estimates = MetricsRegistry::global()
                               .snapshot()
                               .metrics.at("cost/node_estimates")
                               .value;
  set_trace_level(std::nullopt);
  set_lint_hook_level(std::nullopt);

  const std::size_t k = example.queries.size();
  EXPECT_EQ(searches, static_cast<double>(k));
  EXPECT_EQ(search_spans, static_cast<int>(k));
  EXPECT_EQ(estimates,
            static_cast<double>(graph.size() - graph.query_ids().size()));
}

}  // namespace
}  // namespace mvd
