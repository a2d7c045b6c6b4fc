// Tests for src/distributed: topology bookkeeping and the
// communication-aware evaluator.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/distributed/distributed_evaluator.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/selection.hpp"
#include "src/sql/parser.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

TEST(TopologyTest, DefaultsAndLinks) {
  SiteTopology topo({"hq", "east", "west"}, 2.0);
  EXPECT_TRUE(topo.has_site("hq"));
  EXPECT_FALSE(topo.has_site("north"));
  EXPECT_DOUBLE_EQ(topo.transfer_cost("hq", "hq"), 0.0);
  EXPECT_DOUBLE_EQ(topo.transfer_cost("hq", "east"), 2.0);
  topo.set_link_cost("hq", "east", 0.5);
  EXPECT_DOUBLE_EQ(topo.transfer_cost("east", "hq"), 0.5);  // symmetric
  EXPECT_DOUBLE_EQ(topo.transfer_cost("east", "west"), 2.0);
}

TEST(TopologyTest, Validation) {
  EXPECT_THROW(SiteTopology({}), PlanError);
  EXPECT_THROW(SiteTopology({"a", "a"}), PlanError);
  EXPECT_THROW(SiteTopology({"a"}, -1.0), PlanError);
  SiteTopology topo({"a", "b"});
  EXPECT_THROW(topo.set_link_cost("a", "zz", 1.0), PlanError);
  EXPECT_THROW(topo.set_link_cost("a", "b", -1.0), PlanError);
  EXPECT_THROW(topo.place_relation("R", "zz"), PlanError);
  EXPECT_THROW(topo.place_query("Q", "zz"), PlanError);
}

TEST(TopologyTest, PlacementDefaultsToFirstSite) {
  SiteTopology topo({"a", "b"});
  EXPECT_EQ(topo.relation_site("R"), "a");
  EXPECT_EQ(topo.query_site("Q"), "a");
  topo.place_relation("R", "b");
  topo.place_query("Q", "b");
  EXPECT_EQ(topo.relation_site("R"), "b");
  EXPECT_EQ(topo.query_site("Q"), "b");
}

class DistributedEvaluatorTest : public ::testing::Test {
 protected:
  DistributedEvaluatorTest()
      : catalog_(make_paper_catalog()),
        model_(catalog_, paper_cost_config()),
        graph_(build_figure3_mvpp(model_)) {}

  SiteTopology split_topology(double link_cost) const {
    SiteTopology topo({"hq", "remote"}, link_cost);
    // Order and Customer live remotely; everything else (and all query
    // consumers) at hq.
    topo.place_relation("Order", "remote");
    topo.place_relation("Customer", "remote");
    for (const char* r : {"Product", "Division", "Part"}) {
      topo.place_relation(r, "hq");
    }
    return topo;
  }

  NodeId id(const std::string& name) const {
    return graph_.find_by_name(name);
  }

  Catalog catalog_;
  CostModel model_;
  MvppGraph graph_;
};

TEST_F(DistributedEvaluatorTest, ZeroTransferMatchesBaseEvaluator) {
  const MvppEvaluator base(graph_);
  const DistributedMvppEvaluator dist(graph_, split_topology(0.0));
  for (NodeId v : graph_.operation_ids()) {
    EXPECT_DOUBLE_EQ(dist.produce_cost(v, {}), base.produce_cost(v, {}))
        << graph_.node(v).name;
  }
  EXPECT_DOUBLE_EQ(dist.total_cost({}), base.total_cost({}));
}

TEST_F(DistributedEvaluatorTest, SiteAssignmentFollowsInputs) {
  const DistributedMvppEvaluator dist(graph_, split_topology(1.0));
  // tmp4 = Order |x| Customer: both inputs remote -> computed remotely.
  EXPECT_EQ(dist.site_of(id("tmp4")), "remote");
  // tmp1/tmp2 built from hq relations.
  EXPECT_EQ(dist.site_of(id("tmp1")), "hq");
  EXPECT_EQ(dist.site_of(id("tmp2")), "hq");
  // tmp6 joins hq tmp2 (100 blocks) with remote tmp5 (2.5k blocks): the
  // bigger input is remote, so the join runs remotely.
  EXPECT_EQ(dist.site_of(id("tmp6")), "remote");
}

TEST_F(DistributedEvaluatorTest, TransferCostsIncreaseWithLinkCost) {
  const DistributedMvppEvaluator cheap(graph_, split_topology(0.5));
  const DistributedMvppEvaluator pricey(graph_, split_topology(5.0));
  EXPECT_LT(cheap.total_cost({}), pricey.total_cost({}));
  // Queries over hq-only data are unaffected by the link cost.
  const NodeId q1 = graph_.find_by_name("Q1");
  EXPECT_DOUBLE_EQ(cheap.answer_cost(q1, {}), pricey.answer_cost(q1, {}));
}

TEST_F(DistributedEvaluatorTest, ViewPlacementFollowsReadVsRefreshTradeoff) {
  const DistributedMvppEvaluator dist(graph_, split_topology(2.0));
  const NodeId q4 = graph_.find_by_name("Q4");
  const NodeId result4 = id("result4");
  // result4 is computed remotely but read 5x per period at hq and
  // refreshed once: placement stores it at hq, so answering reads it
  // locally...
  EXPECT_EQ(dist.site_of(result4), "remote");
  EXPECT_EQ(dist.storage_site_of(result4), "hq");
  const MaterializedSet m{result4};
  EXPECT_DOUBLE_EQ(dist.answer_cost(q4, m), graph_.node(result4).blocks);
  // ...while each refresh pays the compute cost plus shipping the view to
  // its storage site.
  const double expected_maintenance =
      dist.produce_cost(result4, m) + graph_.node(result4).blocks * 2.0;
  EXPECT_DOUBLE_EQ(dist.maintenance_cost(result4, m), expected_maintenance);
}

TEST_F(DistributedEvaluatorTest, RarelyReadViewStaysAtComputeSite) {
  // Crank the update rate: a view refreshed far more often than read is
  // stored where it is computed.
  SiteTopology topo = split_topology(2.0);
  Catalog catalog = make_paper_catalog();
  catalog.set_update_frequency("Order", 100.0);
  const CostModel model(catalog, paper_cost_config());
  MvppGraph g = build_figure3_mvpp(model);
  g.set_frequency(g.find_by_name("Order"), 100.0);
  const DistributedMvppEvaluator dist(g, topo);
  EXPECT_EQ(dist.storage_site_of(g.find_by_name("result4")), "remote");
}

TEST_F(DistributedEvaluatorTest, SelectionAlgorithmsRunOnTransferCosts) {
  const DistributedMvppEvaluator dist(graph_, split_topology(3.0));
  const SelectionResult yang = yang_heuristic(dist);
  const SelectionResult greedy = greedy_incremental(dist);
  const SelectionResult optimal = exhaustive_optimal(dist);
  EXPECT_LE(optimal.costs.total(), yang.costs.total() + 1e-6);
  EXPECT_LE(optimal.costs.total(), greedy.costs.total() + 1e-6);
  EXPECT_LE(yang.costs.total(), dist.total_cost({}) + 1e-6);
}

TEST_F(DistributedEvaluatorTest, CommunicationAwareDesignDiffersFromOblivious) {
  // With expensive links, the communication-aware optimum can differ from
  // the site-oblivious one; at minimum its distributed cost is no worse
  // than evaluating the oblivious choice distributedly.
  const MvppEvaluator oblivious(graph_);
  const DistributedMvppEvaluator dist(graph_, split_topology(10.0));
  const MaterializedSet oblivious_choice =
      exhaustive_optimal(oblivious).materialized;
  const MaterializedSet aware_choice = exhaustive_optimal(dist).materialized;
  EXPECT_LE(dist.total_cost(aware_choice),
            dist.total_cost(oblivious_choice) + 1e-6);
}

TEST_F(DistributedEvaluatorTest, MaintenanceWithoutReusePaysFullDistributedCost) {
  const SiteTopology topo = split_topology(2.0);
  const DistributedMvppEvaluator reuse(
      graph_, topo, {MaintenancePolicy::Mode::kBatchRecompute, true});
  const DistributedMvppEvaluator no_reuse(
      graph_, topo, {MaintenancePolicy::Mode::kBatchRecompute, false});
  const MaterializedSet m{id("tmp4"), id("result4")};
  EXPECT_LT(reuse.maintenance_cost(id("result4"), m),
            no_reuse.maintenance_cost(id("result4"), m));
}

TEST_F(DistributedEvaluatorTest, AggregateRunsAtItsInputSite) {
  // A rollup over a remote relation, issued at that same site: the
  // aggregate runs where its input lives, so nothing crosses a link.
  const Optimizer optimizer(model_);
  const QuerySpec q = parse_and_bind(
      catalog_, "rollup", 1.0,
      "SELECT city, COUNT(*) AS n FROM Customer GROUP BY city");
  const MvppGraph g = MvppBuilder(optimizer).build({q}, {0}).graph;
  NodeId agg = -1;
  for (const MvppNode& n : g.nodes()) {
    if (n.kind == MvppNodeKind::kAggregate) agg = n.id;
  }
  ASSERT_GE(agg, 0);
  SiteTopology topo = split_topology(3.0);
  topo.place_query("rollup", "remote");
  const DistributedMvppEvaluator dist(g, topo);
  EXPECT_EQ(dist.site_of(agg), dist.site_of(g.node(agg).children[0]));
  EXPECT_EQ(dist.site_of(agg), "remote");
  const NodeId root = g.find_by_name("rollup");
  EXPECT_DOUBLE_EQ(dist.produce_transfer_blocks(agg, {}), 0.0);
  EXPECT_DOUBLE_EQ(dist.answer_transfer_blocks(root, {}), 0.0);
  EXPECT_DOUBLE_EQ(dist.answer_cost(root, {}),
                   MvppEvaluator(g).answer_cost(root, {}));
}

}  // namespace
}  // namespace mvd
