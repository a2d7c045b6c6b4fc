// Tests for src/mvpp/selection: the Figure 9 heuristic (walkthrough
// fidelity + options), the baselines, and cross-algorithm properties on
// generated workloads.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/selection.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest()
      : catalog_(make_paper_catalog()),
        model_(catalog_, paper_cost_config()),
        graph_(build_figure3_mvpp(model_)),
        eval_(graph_) {}

  std::set<std::string> names(const MaterializedSet& m) const {
    std::set<std::string> out;
    for (NodeId v : m) out.insert(graph_.node(v).name);
    return out;
  }

  Catalog catalog_;
  CostModel model_;
  MvppGraph graph_;
  MvppEvaluator eval_;
};

TEST_F(SelectionTest, YangSelectsTmp2AndTmp4) {
  // The Section 4.3 headline result.
  const SelectionResult r = yang_heuristic(eval_);
  EXPECT_EQ(names(r.materialized), (std::set<std::string>{"tmp2", "tmp4"}));
}

TEST_F(SelectionTest, YangTraceMatchesWalkthroughOrder) {
  const SelectionResult r = yang_heuristic(eval_);
  ASSERT_FALSE(r.trace.empty());
  // LV = <tmp4, result4, tmp7, tmp2, result1, tmp1> — the paper's order.
  const std::string& lv = r.trace.front();
  const std::vector<std::string> expected_order{"tmp4",    "result4", "tmp7",
                                                "tmp2",    "result1", "tmp1"};
  std::size_t pos = 0;
  for (const std::string& name : expected_order) {
    const std::size_t at = lv.find(name + "(", pos);
    EXPECT_NE(at, std::string::npos) << name << " missing/misplaced in " << lv;
    pos = at;
  }
  // tmp4 accepted first, result4 rejected next.
  EXPECT_NE(r.trace[1].find("tmp4"), std::string::npos);
  EXPECT_NE(r.trace[1].find("materialize"), std::string::npos);
  EXPECT_NE(r.trace[2].find("result4"), std::string::npos);
  EXPECT_NE(r.trace[2].find("reject"), std::string::npos);
}

TEST_F(SelectionTest, BranchPruningRemovesTmp7) {
  const SelectionResult with = yang_heuristic(eval_);
  // tmp7 must never be visited with pruning on (it lies on result4's
  // branch).
  for (const std::string& line : with.trace) {
    EXPECT_EQ(line.find("tmp7: Cs"), std::string::npos) << line;
  }
  // With pruning off, tmp7 gets its own Cs evaluation.
  const SelectionResult without =
      yang_heuristic(eval_, {.branch_pruning = false});
  bool visited = false;
  for (const std::string& line : without.trace) {
    if (line.find("tmp7: Cs") != std::string::npos) visited = true;
  }
  EXPECT_TRUE(visited);
}

TEST_F(SelectionTest, TrivialStrategies) {
  EXPECT_TRUE(select_nothing(eval_).materialized.empty());
  const SelectionResult all_q = select_all_query_results(eval_);
  EXPECT_EQ(names(all_q.materialized),
            (std::set<std::string>{"result1", "result2", "result3",
                                   "result4"}));
  const SelectionResult all_ops = select_all_operations(eval_);
  EXPECT_EQ(all_ops.materialized.size(), graph_.operation_ids().size());
}

TEST_F(SelectionTest, ExhaustiveIsOptimal) {
  const SelectionResult opt = exhaustive_optimal(eval_);
  // No listed strategy may beat it.
  for (const SelectionResult& r :
       {select_nothing(eval_), select_all_query_results(eval_),
        select_all_operations(eval_), yang_heuristic(eval_),
        greedy_incremental(eval_)}) {
    EXPECT_LE(opt.costs.total(), r.costs.total() + 1e-6) << r.algorithm;
  }
}

TEST_F(SelectionTest, ExhaustiveRespectsCandidateLimit) {
  EXPECT_THROW(exhaustive_optimal(eval_, 3), PlanError);
}

TEST(SelectionLimitTest, MaskSearchesRejectCandidatesBeyondTheMaskWidth) {
  // 76 candidates do not fit a 64-bit subset mask, so the 2^n searches
  // must refuse them even when the caller's limit would allow it.
  StarSchemaOptions schema;
  schema.dimensions = 6;
  const Catalog catalog = make_star_catalog(schema);
  StarQueryOptions qopts;
  qopts.count = 24;
  qopts.seed = 3;
  const std::vector<QuerySpec> queries =
      generate_star_queries(catalog, schema, qopts);
  const CostModel model(catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  const MvppGraph g =
      builder.build(queries, builder.initial_order(queries)).graph;
  ASSERT_GE(g.operation_ids().size(), 64u);
  const MvppEvaluator eval(g);
  EXPECT_THROW(exhaustive_optimal(eval, 1000), PlanError);
  EXPECT_THROW(budgeted_optimal(eval, 1e12, 1000), PlanError);
}

TEST_F(SelectionTest, GreedyNeverWorseThanTrivialStrategies) {
  const SelectionResult g = greedy_incremental(eval_);
  EXPECT_LE(g.costs.total(), select_nothing(eval_).costs.total() + 1e-6);
  EXPECT_LE(g.costs.total(),
            select_all_query_results(eval_).costs.total() + 1e-6);
}

TEST_F(SelectionTest, AnnealingDeterministicPerSeed) {
  const SelectionResult a = simulated_annealing(eval_, {.seed = 3});
  const SelectionResult b = simulated_annealing(eval_, {.seed = 3});
  EXPECT_EQ(a.materialized, b.materialized);
  EXPECT_DOUBLE_EQ(a.costs.total(), b.costs.total());
}

TEST_F(SelectionTest, AnnealingNeverWorseThanGreedySeed) {
  const SelectionResult sa = simulated_annealing(eval_, {.seed = 5});
  EXPECT_LE(sa.costs.total(),
            greedy_incremental(eval_).costs.total() + 1e-6);
}

TEST_F(SelectionTest, BranchAndBoundMatchesExhaustive) {
  const SelectionResult bnb = branch_and_bound_optimal(eval_);
  const SelectionResult brute = exhaustive_optimal(eval_);
  EXPECT_DOUBLE_EQ(bnb.costs.total(), brute.costs.total());
  EXPECT_EQ(bnb.materialized, brute.materialized);
}

TEST_F(SelectionTest, BranchAndBoundPrunes) {
  const SelectionResult bnb = branch_and_bound_optimal(eval_);
  ASSERT_FALSE(bnb.trace.empty());
  // 11 candidates -> 4095 search nodes unpruned; the bound must cut that
  // substantially.
  const std::string& line = bnb.trace.front();
  const std::size_t visited = std::stoul(line.substr(line.find("visited ") + 8));
  EXPECT_LT(visited, 4095u / 2);
  EXPECT_NE(line.find(" search nodes of 4095 possible"), std::string::npos)
      << line;
}

TEST_F(SelectionTest, BranchAndBoundRespectsLimit) {
  EXPECT_THROW(branch_and_bound_optimal(eval_, 3), PlanError);
}

TEST_F(SelectionTest, BranchAndBoundMatchesExhaustiveUnderVariants) {
  // Per-update policy and indexed views change the cost surface; the
  // optimum must still agree with brute force.
  for (const MaintenancePolicy policy :
       {MaintenancePolicy{MaintenancePolicy::Mode::kPerUpdate, true},
        MaintenancePolicy{MaintenancePolicy::Mode::kBatchRecompute, false}}) {
    const MvppEvaluator eval(graph_, policy);
    EXPECT_DOUBLE_EQ(branch_and_bound_optimal(eval).costs.total(),
                     exhaustive_optimal(eval).costs.total());
  }
  const MvppEvaluator indexed(graph_, {}, IndexPolicy{true, 1.2});
  EXPECT_DOUBLE_EQ(branch_and_bound_optimal(indexed).costs.total(),
                   exhaustive_optimal(indexed).costs.total());
}

TEST_F(SelectionTest, LocalSearchNeverWorsensItsStart) {
  for (const SelectionResult& base :
       {yang_heuristic(eval_), select_nothing(eval_),
        select_all_query_results(eval_)}) {
    const SelectionResult polished = local_search(eval_, base.materialized);
    EXPECT_LE(polished.costs.total(), base.costs.total() + 1e-9)
        << base.algorithm;
  }
}

TEST_F(SelectionTest, LocalSearchReachesOptimumOnFigure3) {
  const SelectionResult polished =
      local_search(eval_, yang_heuristic(eval_).materialized);
  EXPECT_DOUBLE_EQ(polished.costs.total(),
                   exhaustive_optimal(eval_).costs.total());
}

TEST_F(SelectionTest, LocalSearchStopsAtLocalOptimum) {
  const SelectionResult r = local_search(eval_, {});
  // Re-running from the result makes no further moves.
  const SelectionResult again = local_search(eval_, r.materialized);
  EXPECT_TRUE(again.trace.empty());
  EXPECT_EQ(again.materialized, r.materialized);
}

TEST_F(SelectionTest, LocalSearchRejectsInvalidStart) {
  EXPECT_THROW(local_search(eval_, {graph_.base_ids().front()}), PlanError);
}

TEST_F(SelectionTest, ReportedCostsMatchIndependentEvaluation) {
  for (const SelectionResult& r :
       {yang_heuristic(eval_), greedy_incremental(eval_),
        exhaustive_optimal(eval_), select_all_query_results(eval_)}) {
    const MvppCosts again = eval_.evaluate(r.materialized);
    EXPECT_DOUBLE_EQ(r.costs.total(), again.total()) << r.algorithm;
  }
}

TEST_F(SelectionTest, EvaluateStrategyIsWhatIf) {
  const SelectionResult r = evaluate_strategy(
      eval_, "custom",
      {graph_.find_by_name("tmp2"), graph_.find_by_name("tmp4")});
  EXPECT_EQ(r.algorithm, "custom");
  EXPECT_DOUBLE_EQ(
      r.costs.total(),
      eval_.total_cost({graph_.find_by_name("tmp2"),
                        graph_.find_by_name("tmp4")}));
}

// Property sweeps over generated workloads: the heuristics must stay
// within the bounds of the trivial strategies and above the optimum.
struct SweepCase {
  std::uint64_t seed;
  std::size_t queries;
};

class SelectionSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SelectionSweepTest, AlgorithmSanityOnGeneratedWorkloads) {
  const SweepCase param = GetParam();
  StarSchemaOptions schema;
  schema.dimensions = 4;
  const Catalog catalog = make_star_catalog(schema);
  StarQueryOptions qopts;
  qopts.count = param.queries;
  qopts.seed = param.seed;
  const std::vector<QuerySpec> queries =
      generate_star_queries(catalog, schema, qopts);

  const CostModel model(catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  const MvppBuildResult built =
      builder.build(queries, builder.initial_order(queries));
  const MvppEvaluator eval(built.graph);

  const double none = select_nothing(eval).costs.total();
  const double yang = yang_heuristic(eval).costs.total();
  const double greedy = greedy_incremental(eval).costs.total();
  const double optimal =
      built.graph.operation_ids().size() <= 18
          ? exhaustive_optimal(eval, 18).costs.total()
          : greedy;

  EXPECT_LE(yang, none + 1e-6);
  EXPECT_LE(greedy, none + 1e-6);
  EXPECT_LE(optimal, yang + 1e-6);
  EXPECT_LE(optimal, greedy + 1e-6);
  EXPECT_GT(optimal, 0);

  // Branch and bound agrees with brute force wherever the latter ran.
  if (built.graph.operation_ids().size() <= 18) {
    EXPECT_NEAR(branch_and_bound_optimal(eval).costs.total(), optimal, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SelectionSweepTest,
    ::testing::Values(SweepCase{1, 3}, SweepCase{2, 4}, SweepCase{3, 5},
                      SweepCase{4, 4}, SweepCase{5, 3}, SweepCase{6, 5},
                      SweepCase{7, 4}, SweepCase{8, 3}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_q" +
             std::to_string(info.param.queries);
    });

}  // namespace
}  // namespace mvd
