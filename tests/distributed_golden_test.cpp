// Golden distributed-selection results. Every selection algorithm runs on
// a DistributedMvppEvaluator and must land on exactly the pinned set and
// total (EXPECT_DOUBLE_EQ). The values were recorded when transfer
// charges were still priced by virtual overrides on a std::set-only
// probing path; pricing them as evaluator data on the incremental fast
// path must not move a single selection or a single bit of any total.
//
// Inputs: the Fig. 3 MVPP under bench_distributed's Ext-F topology (base
// relations at two operational sites, queries issued at a third) at six
// link costs, and a generated 3-dimension star workload spread round-robin
// over three sites.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/distributed/distributed_evaluator.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/selection.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

struct Golden {
  const char* algorithm;
  const char* materialized;
  double total;
};

std::vector<SelectionResult> run_all(const MvppGraph& g,
                                     const MvppEvaluator& eval) {
  const double budget =
      0.5 * total_view_blocks(g, select_all_operations(eval).materialized);
  return {yang_heuristic(eval),
          greedy_incremental(eval),
          local_search(eval, {}),
          simulated_annealing(eval),
          exhaustive_optimal(eval),
          branch_and_bound_optimal(eval),
          budgeted_greedy(eval, budget),
          budgeted_optimal(eval, budget)};
}

void expect_golden(const MvppGraph& g, const MvppEvaluator& eval,
                   const std::vector<Golden>& expected) {
  const std::vector<SelectionResult> got = run_all(g, eval);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].algorithm, expected[i].algorithm);
    EXPECT_EQ(to_string(g, got[i].materialized), expected[i].materialized)
        << expected[i].algorithm;
    EXPECT_DOUBLE_EQ(got[i].costs.total(), expected[i].total)
        << expected[i].algorithm;
  }
}

SiteTopology ext_f_topology(double link_cost) {
  SiteTopology topo({"analysis", "sales", "manufacturing"}, link_cost);
  topo.place_relation("Order", "sales");
  topo.place_relation("Customer", "sales");
  topo.place_relation("Product", "manufacturing");
  topo.place_relation("Division", "manufacturing");
  topo.place_relation("Part", "manufacturing");
  for (const char* q : {"Q1", "Q2", "Q3", "Q4"}) {
    topo.place_query(q, "analysis");
  }
  return topo;
}

TEST(DistributedGoldenTest, Figure3UnderExtFTopology) {
  const Catalog catalog = make_paper_catalog();
  const CostModel model(catalog, paper_cost_config());
  const MvppGraph g = build_figure3_mvpp(model);
  ASSERT_EQ(g.operation_ids().size(), 11u);

  struct Case {
    double link;
    std::vector<Golden> expected;
  };
  const std::vector<Case> cases = {
      {0.0,
       {{"yang-heuristic", "{tmp2, tmp4}", 12775755.800000001},
        {"greedy-incremental", "{result1, result4, tmp2, tmp4}",
         12745338.800000001},
        {"local-search", "{result1, result4, tmp2, tmp4}", 12745338.800000001},
        {"simulated-annealing", "{result1, result4, tmp2, tmp4}",
         12745338.800000001},
        {"exhaustive-optimal", "{result1, result4, tmp2, tmp4}",
         12745338.800000001},
        {"branch-and-bound", "{result1, result4, tmp2, tmp4}",
         12745338.800000001},
        {"budgeted-greedy", "{result1, result4, tmp2, tmp4}",
         12745338.800000001},
        {"budgeted-optimal", "{result1, result4, tmp2, tmp4}",
         12745338.800000001}}},
      {1.0,
       {{"yang-heuristic", "{tmp2, tmp4}", 12811529},
        {"greedy-incremental", "{result1, result4, tmp2, tmp4}", 12759780},
        {"local-search", "{result1, result4, tmp2, tmp4}", 12759780},
        {"simulated-annealing", "{result1, result4, tmp2, tmp4}", 12759780},
        {"exhaustive-optimal", "{result1, result4, tmp2, tmp4}", 12759780},
        {"branch-and-bound", "{result1, result4, tmp2, tmp4}", 12759780},
        {"budgeted-greedy", "{result1, result4, tmp2, tmp4}", 12759780},
        {"budgeted-optimal", "{result1, result4, tmp2, tmp4}", 12759780}}},
      {10.0,
       {{"yang-heuristic", "{tmp2, tmp4}", 13133487.800000001},
        {"greedy-incremental", "{result1, result4, tmp2, tmp4}",
         12889750.800000001},
        {"local-search", "{result1, result4, tmp2, tmp4}", 12889750.800000001},
        {"simulated-annealing", "{result1, result4, tmp2, tmp4}",
         12889750.800000001},
        {"exhaustive-optimal", "{result1, result4, tmp2, tmp4}",
         12889750.800000001},
        {"branch-and-bound", "{result1, result4, tmp2, tmp4}",
         12889750.800000001},
        {"budgeted-greedy", "{result1, result4, tmp2, tmp4}",
         12889750.800000001},
        {"budgeted-optimal", "{result1, result4, tmp2, tmp4}",
         12889750.800000001}}},
      {100.0,
       {{"yang-heuristic", "{tmp2, tmp4}", 16353075.800000001},
        {"greedy-incremental", "{result1, result4, tmp2, tmp4}",
         14189458.800000001},
        {"local-search", "{result1, result4, tmp2, tmp4}", 14189458.800000001},
        {"simulated-annealing", "{result1, result4, tmp2, tmp4}",
         14189458.800000001},
        {"exhaustive-optimal", "{result1, result4, tmp2, tmp4}",
         14189458.800000001},
        {"branch-and-bound", "{result1, result4, tmp2, tmp4}",
         14189458.800000001},
        {"budgeted-greedy", "{result1, result4, tmp2, tmp4}",
         14189458.800000001},
        {"budgeted-optimal", "{result1, result4, tmp2, tmp4}",
         14189458.800000001}}},
      {500.0,
       {{"yang-heuristic", "{tmp2, tmp4}", 30662355.800000001},
        {"greedy-incremental", "{result1, result4, tmp4}", 19880276.800000001},
        {"local-search", "{result1, result4, tmp4}", 19880276.800000001},
        {"simulated-annealing", "{result1, result4, tmp4}", 19880276.800000001},
        {"exhaustive-optimal", "{result1, result4, tmp4}", 19880276.800000001},
        {"branch-and-bound", "{result1, result4, tmp4}", 19880276.800000001},
        {"budgeted-greedy", "{result1, result4, tmp4}", 19880276.800000001},
        {"budgeted-optimal", "{result1, result4, tmp4}", 19880276.800000001}}},
      {2000.0,
       {{"yang-heuristic", "{tmp2, tmp4}", 84322155.799999997},
        {"greedy-incremental", "{result1, result4}", 22768676.800000001},
        {"local-search", "{result1, result4}", 22768676.800000001},
        {"simulated-annealing", "{result1, result4}", 22768676.800000001},
        {"exhaustive-optimal", "{result1, result4}", 22768676.800000001},
        {"branch-and-bound", "{result1, result4}", 22768676.800000001},
        {"budgeted-greedy", "{result1, result4}", 22768676.800000001},
        {"budgeted-optimal", "{result1, result4}", 22768676.800000001}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("link cost " + std::to_string(c.link));
    const DistributedMvppEvaluator dist(g, ext_f_topology(c.link));
    expect_golden(g, dist, c.expected);
  }
}

TEST(DistributedGoldenTest, GeneratedStarOverThreeSites) {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  const Catalog catalog = make_star_catalog(schema);
  StarQueryOptions qopts;
  qopts.count = 4;
  qopts.seed = 5;
  const std::vector<QuerySpec> queries =
      generate_star_queries(catalog, schema, qopts);
  const CostModel model(catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  const MvppGraph g =
      builder.build(queries, builder.initial_order(queries)).graph;
  ASSERT_EQ(g.operation_ids().size(), 18u);

  const std::vector<std::string> sites{"s0", "s1", "s2"};
  SiteTopology topo(sites, 4.0);
  std::size_t i = 0;
  for (const std::string& relation : catalog.relation_names()) {
    topo.place_relation(relation, sites[i++ % sites.size()]);
  }
  i = 0;
  for (const QuerySpec& q : queries) {
    topo.place_query(q.name(), sites[i++ % sites.size()]);
  }
  const DistributedMvppEvaluator dist(g, topo);

  const char* const optimum = "{tmp11, tmp14, tmp16, tmp18, tmp5, tmp6, tmp9}";
  expect_golden(
      g, dist,
      {{"yang-heuristic", "{tmp6, tmp7, tmp9}", 17671.333333333325},
       {"greedy-incremental", optimum, 12291.833333333334},
       {"local-search", optimum, 12291.833333333334},
       {"simulated-annealing", optimum, 12291.833333333334},
       {"exhaustive-optimal", optimum, 12291.833333333334},
       {"branch-and-bound", optimum, 12291.833333333334},
       {"budgeted-greedy", "{tmp11, tmp14, tmp16, tmp18, tmp5, tmp8, tmp9}",
        17291.833333333332},
       {"budgeted-optimal", "{tmp11, tmp14, tmp18, tmp6, tmp9}",
        12608.333333333334}});
}

}  // namespace
}  // namespace mvd
