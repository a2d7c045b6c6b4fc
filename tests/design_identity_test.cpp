// The design op prices each plan once: build_all_rotations searches each
// query's join order once and every rotation merges those orders,
// MvppGraph::annotate and CostModel::full_cost estimate each node once,
// and the join-order search extends each prefix by one join. None of that
// may move a bit of any design:
//   (a) every rotation equals an independent build(queries, rotation),
//       node for node;
//   (b) the join-order search returns the order and cost of the
//       rebuild-every-prefix search it replaced (copied below as the
//       reference);
//   (c) the design of a 6-dimension star with 12 declared queries keeps
//       the chosen candidate, materialized set and costs recorded before
//       the change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/mvpp/builder.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

// ---- Workloads.

// The design benchmark's warehouse: 6 dimensions x 1k rows, 20k fact rows,
// default cost model.
StarSchemaOptions design_star_schema() {
  StarSchemaOptions schema;
  schema.dimensions = 6;
  schema.fact_rows = 20'000;
  schema.dimension_rows = 1'000;
  return schema;
}

struct DeclaredQuery {
  const char* name;
  double frequency;
  const char* sql;
};

// The design benchmark's 12 declared queries (fq = 10 / rank).
const DeclaredQuery kStarQueries[] = {
    {"Q1", 10,
     "SELECT Dim4.category, SUM(Fact.measure), COUNT(*) FROM Fact, Dim4, "
     "Dim5 WHERE Fact.d4 = Dim4.id AND Fact.d5 = Dim5.id AND Dim4.category "
     "= 'cat_15' AND Fact.measure > 117 GROUP BY Dim4.category"},
    {"Q2", 5,
     "SELECT Fact.measure, Dim0.label, Dim4.label, Dim5.label FROM Fact, "
     "Dim0, Dim4, Dim5 WHERE Fact.d0 = Dim0.id AND Fact.d4 = Dim4.id AND "
     "Fact.d5 = Dim5.id AND Fact.measure > 293"},
    {"Q3", 10.0 / 3,
     "SELECT Fact.measure, Dim2.label, Dim3.label, Dim4.label, Dim5.label "
     "FROM Fact, Dim2, Dim3, Dim4, Dim5 WHERE Fact.d2 = Dim2.id AND Fact.d3 "
     "= Dim3.id AND Fact.d4 = Dim4.id AND Fact.d5 = Dim5.id AND "
     "Dim3.category = 'cat_12' AND Dim4.category = 'cat_1' AND "
     "Dim5.category = 'cat_0'"},
    {"Q4", 2.5,
     "SELECT Dim1.category, SUM(Fact.measure), COUNT(*) FROM Fact, Dim1 "
     "WHERE Fact.d1 = Dim1.id AND Dim1.category = 'cat_15' GROUP BY "
     "Dim1.category"},
    {"Q5", 2,
     "SELECT Fact.measure, Dim2.label, Dim4.label FROM Fact, Dim2, Dim4 "
     "WHERE Fact.d2 = Dim2.id AND Fact.d4 = Dim4.id AND Dim4.category = "
     "'cat_12'"},
    {"Q6", 10.0 / 6,
     "SELECT Fact.measure, Dim0.label, Dim2.label, Dim3.label, Dim5.label "
     "FROM Fact, Dim0, Dim2, Dim3, Dim5 WHERE Fact.d0 = Dim0.id AND Fact.d2 "
     "= Dim2.id AND Fact.d3 = Dim3.id AND Fact.d5 = Dim5.id AND "
     "Dim0.category = 'cat_10' AND Dim5.category = 'cat_12' AND "
     "Fact.measure > 319"},
    {"Q7", 10.0 / 7,
     "SELECT Dim2.category, SUM(Fact.measure), COUNT(*) FROM Fact, Dim2 "
     "WHERE Fact.d2 = Dim2.id AND Dim2.category = 'cat_14' AND Fact.measure "
     "> 188 GROUP BY Dim2.category"},
    {"Q8", 1.25,
     "SELECT Fact.measure, Dim0.label, Dim1.label, Dim2.label, Dim4.label "
     "FROM Fact, Dim0, Dim1, Dim2, Dim4 WHERE Fact.d0 = Dim0.id AND Fact.d1 "
     "= Dim1.id AND Fact.d2 = Dim2.id AND Fact.d4 = Dim4.id AND "
     "Dim0.category = 'cat_11' AND Dim2.category = 'cat_4' AND "
     "Fact.measure > 495"},
    {"Q9", 10.0 / 9,
     "SELECT Fact.measure, Dim0.label FROM Fact, Dim0 WHERE Fact.d0 = "
     "Dim0.id AND Dim0.category = 'cat_12'"},
    {"Q10", 1,
     "SELECT Dim1.category, SUM(Fact.measure), COUNT(*) FROM Fact, Dim1 "
     "WHERE Fact.d1 = Dim1.id AND Dim1.category = 'cat_18' GROUP BY "
     "Dim1.category"},
    {"Q11", 10.0 / 11,
     "SELECT Fact.measure, Dim0.label FROM Fact, Dim0 WHERE Fact.d0 = "
     "Dim0.id AND Dim0.category = 'cat_6' AND Fact.measure > 103"},
    {"Q12", 10.0 / 12,
     "SELECT Fact.measure, Dim0.label, Dim1.label, Dim3.label, Dim4.label "
     "FROM Fact, Dim0, Dim1, Dim3, Dim4 WHERE Fact.d0 = Dim0.id AND Fact.d1 "
     "= Dim1.id AND Fact.d3 = Dim3.id AND Fact.d4 = Dim4.id AND "
     "Dim4.category = 'cat_9' AND Fact.measure > 9"},
};

std::vector<QuerySpec> star_queries(const Catalog& catalog) {
  std::vector<QuerySpec> out;
  for (const DeclaredQuery& q : kStarQueries) {
    out.push_back(parse_and_bind(catalog, q.name, q.frequency, q.sql));
  }
  return out;
}

// One catalog, its cost model and the queries designed over it.
struct Workload {
  std::string label;
  Catalog catalog;
  CostModelConfig cost;
  std::vector<QuerySpec> queries;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    PaperExample paper = make_paper_example();
    out.push_back({"paper", paper.catalog, paper_cost_config(),
                   std::move(paper.queries)});
  }
  {
    const Catalog catalog = make_star_catalog(design_star_schema());
    out.push_back({"star", catalog, {}, star_queries(catalog)});
  }
  StarSchemaOptions schema;
  schema.dimensions = 5;
  const Catalog catalog = make_star_catalog(schema);
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    StarQueryOptions qopts;
    qopts.count = 6;
    qopts.max_dimensions = 4;
    qopts.seed = seed;
    out.push_back({"generated seed " + std::to_string(seed), catalog, {},
                   generate_star_queries(catalog, schema, qopts)});
  }
  return out;
}

// ---- (a) Rotations equal independent builds.

void expect_same_graph(const MvppGraph& got, const MvppGraph& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const MvppNode& a = got.nodes()[i];
    const MvppNode& b = want.nodes()[i];
    const std::string at = where + " node " + std::to_string(i);
    EXPECT_EQ(a.kind, b.kind) << at;
    EXPECT_EQ(a.name, b.name) << at;
    EXPECT_EQ(a.sig, b.sig) << at;
    EXPECT_EQ(a.children, b.children) << at;
    EXPECT_EQ(a.rows, b.rows) << at;
    EXPECT_EQ(a.blocks, b.blocks) << at;
    EXPECT_EQ(a.op_cost, b.op_cost) << at;
    EXPECT_EQ(a.full_cost, b.full_cost) << at;
  }
}

TEST(DesignIdentityTest, RotationsEqualIndependentBuilds) {
  for (const Workload& w : workloads()) {
    const CostModel model(w.catalog, w.cost);
    const Optimizer optimizer(model);
    const MvppBuilder builder(optimizer);
    const std::vector<MvppBuildResult> rotations =
        builder.build_all_rotations(w.queries);
    ASSERT_EQ(rotations.size(), w.queries.size()) << w.label;
    std::vector<std::size_t> order = builder.initial_order(w.queries);
    for (std::size_t k = 0; k < rotations.size(); ++k) {
      const MvppBuildResult alone = builder.build(w.queries, order);
      const std::string where = w.label + " rotation " + std::to_string(k);
      EXPECT_EQ(rotations[k].merge_order, alone.merge_order) << where;
      expect_same_graph(rotations[k].graph, alone.graph, where);
      std::rotate(order.begin(), order.begin() + 1, order.end());
    }
  }
}

// ---- (b) The join-order search against the search it replaced.

// Join conjuncts of `spec` linking `placed` to `next`, removing them from
// `remaining` (the reference search's own copy).
std::vector<ExprPtr> take_applicable_joins(
    std::vector<JoinPredicate>& remaining,
    const std::set<std::string>& placed, const std::string& next) {
  std::vector<ExprPtr> out;
  for (auto it = remaining.begin(); it != remaining.end();) {
    const std::string lr = it->left_relation();
    const std::string rr = it->right_relation();
    const bool connects = (placed.contains(lr) && rr == next) ||
                          (placed.contains(rr) && lr == next);
    if (connects) {
      out.push_back(it->expr());
      it = remaining.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

// Ca as full_cost computed it before its single pass: op_cost from
// re-derived child estimates, plus each non-scan child's Ca, recursively.
double reference_full_cost(const CostModel& cost_model, const PlanPtr& plan) {
  if (plan->kind() == OpKind::kScan) return cost_model.estimate(plan).blocks;
  double total = cost_model.op_cost(plan);
  for (const PlanPtr& c : plan->children()) {
    if (c->kind() != OpKind::kScan) total += reference_full_cost(cost_model, c);
  }
  return total;
}

// The subset DP as it was before the search became incremental: every
// candidate prefix is rebuilt from relation units and priced from its
// leaves. Returns the order with dp[full]'s cost (for one relation, the
// unit's cost, which the old search skipped computing).
JoinOrder reference_join_order(const Optimizer& optimizer,
                               const QuerySpec& spec, bool connected_only) {
  const CostModel& cost_model = optimizer.cost_model();
  const std::vector<std::string>& rels = spec.relations();
  const std::size_t n = rels.size();
  const PlanPlacement pushed{true, true};
  const auto unit_cost = [&](const std::string& relation) {
    return reference_full_cost(cost_model,
                               optimizer.relation_unit(spec, relation, pushed));
  };
  if (n == 1) return {rels, unit_cost(rels[0])};

  std::vector<std::uint32_t> adjacent(n, 0);
  auto index_of = [&](const std::string& r) {
    return static_cast<std::size_t>(
        std::find(rels.begin(), rels.end(), r) - rels.begin());
  };
  for (const JoinPredicate& j : spec.joins()) {
    const std::size_t a = index_of(j.left_relation());
    const std::size_t b = index_of(j.right_relation());
    adjacent[a] |= 1u << b;
    adjacent[b] |= 1u << a;
  }

  struct State {
    double cost = std::numeric_limits<double>::infinity();
    std::vector<std::string> order;
  };
  std::vector<State> dp(std::size_t{1} << n);
  for (std::size_t r = 0; r < n; ++r) {
    State& s = dp[std::size_t{1} << r];
    s.order = {rels[r]};
    s.cost = unit_cost(rels[r]);
  }

  const std::size_t full = (std::size_t{1} << n) - 1;
  for (std::size_t mask = 1; mask <= full; ++mask) {
    if (!std::isfinite(dp[mask].cost)) continue;
    if (mask == full) break;
    std::uint32_t frontier = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (mask & (std::size_t{1} << r)) frontier |= adjacent[r];
    }
    frontier &= ~static_cast<std::uint32_t>(mask);
    const bool use_connected = connected_only && frontier != 0;
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t bit = std::size_t{1} << r;
      if (mask & bit) continue;
      if (use_connected && !(frontier & bit)) continue;
      std::vector<std::string> order = dp[mask].order;
      order.push_back(rels[r]);
      std::vector<JoinPredicate> remaining = spec.joins();
      std::set<std::string> placed{order.front()};
      PlanPtr plan = optimizer.relation_unit(spec, order.front(), pushed);
      for (std::size_t i = 1; i < order.size(); ++i) {
        PlanPtr right = optimizer.relation_unit(spec, order[i], pushed);
        std::vector<ExprPtr> preds =
            take_applicable_joins(remaining, placed, order[i]);
        ExprPtr joined = preds.empty() ? lit(Value::boolean(true))
                                       : conj(std::move(preds));
        plan = make_join(std::move(plan), std::move(right), joined);
        placed.insert(order[i]);
      }
      const double cost = reference_full_cost(cost_model, plan);
      State& next = dp[mask | bit];
      if (cost < next.cost) {
        next.cost = cost;
        next.order = std::move(order);
      }
    }
  }
  if (!std::isfinite(dp[full].cost)) {
    return reference_join_order(optimizer, spec, /*connected_only=*/false);
  }
  return {dp[full].order, dp[full].cost};
}

void expect_same_search(const Optimizer& optimizer, const QuerySpec& q,
                        bool connected_only, const std::string& where) {
  const JoinOrder want = reference_join_order(optimizer, q, connected_only);
  const JoinOrder got = optimizer.best_join_order(q);
  EXPECT_EQ(got.relations, want.relations) << where << " " << q.name();
  EXPECT_EQ(got.cost, want.cost) << where << " " << q.name();
  EXPECT_EQ(optimizer.optimal_join_order(q), want.relations)
      << where << " " << q.name();
}

TEST(DesignIdentityTest, JoinOrderSearchMatchesRebuildingSearch) {
  for (const Workload& w : workloads()) {
    const CostModel model(w.catalog, w.cost);
    for (const bool connected : {true, false}) {
      const Optimizer optimizer(model, OptimizerConfig{connected});
      for (const QuerySpec& q : w.queries) {
        expect_same_search(optimizer, q, connected, w.label);
      }
    }
  }
}

TEST(DesignIdentityTest, JoinOrderSearchOnSingleAndDisconnectedQueries) {
  const Catalog catalog = make_paper_catalog();
  const CostModel model(catalog, paper_cost_config());
  const Optimizer optimizer(model);
  const std::vector<QuerySpec> queries = {
      parse_and_bind(catalog, "one", 1.0,
                     "SELECT name FROM Product WHERE Pid > 10"),
      parse_and_bind(catalog, "bare", 1.0, "SELECT city FROM Division"),
      // Customer shares no join conjunct with the rest.
      parse_and_bind(catalog, "island", 1.0,
                     "SELECT Product.name, Customer.name FROM Product, "
                     "Division, Customer WHERE Product.Did = Division.Did "
                     "AND Customer.city = 'LA'"),
      // Two components of two relations each.
      parse_and_bind(catalog, "halves", 1.0,
                     "SELECT Division.city, Customer.name FROM Product, "
                     "Division, Order, Customer WHERE Product.Did = "
                     "Division.Did AND Order.Cid = Customer.Cid AND "
                     "Division.city = 'LA'"),
      // No join conjunct at all.
      parse_and_bind(catalog, "cross", 1.0,
                     "SELECT Part.name, Division.name FROM Part, Division"),
  };
  for (const bool connected : {true, false}) {
    const Optimizer search(model, OptimizerConfig{connected});
    for (const QuerySpec& q : queries) {
      expect_same_search(search, q, connected, "paper catalog");
    }
  }
  EXPECT_EQ(optimizer.best_join_order(queries[0]).relations,
            std::vector<std::string>{"Product"});
  EXPECT_EQ(optimizer.best_join_order(queries[2]).relations.size(), 3u);
}

// ---- (c) The star design, recorded before the change.

TEST(DesignIdentityTest, StarDesignGolden) {
  DesignerOptions options;
  options.algorithm = DesignerOptions::Algorithm::kYang;
  WarehouseDesigner designer(make_star_catalog(design_star_schema()),
                             options);
  for (const DeclaredQuery& q : kStarQueries) {
    designer.add_query(q.name, q.frequency, q.sql);
  }
  const DesignResult design = designer.design();

  ASSERT_EQ(design.candidates.size(), 12u);
  EXPECT_EQ(design.mvpp_index, 2u);
  EXPECT_EQ(design.candidates[2].merge_order.front(), "Q3");
  EXPECT_EQ(to_string(design.graph(), design.selection.materialized),
            "{tmp11, tmp12, tmp13, tmp14, tmp17, tmp23, tmp25, tmp26, "
            "tmp28, tmp34, tmp48, tmp50, tmp6, tmp7, tmp8, tmp9}");
  EXPECT_EQ(design.selection.costs.query_processing, 71004.265151515167);
  EXPECT_EQ(design.selection.costs.maintenance, 128641.5);
  EXPECT_EQ(design.selection.costs.total(), 199645.76515151517);

  // Every candidate's node count and Fig. 9 total.
  struct Candidate {
    std::size_t nodes;
    double total;
  };
  const Candidate expected[] = {
      {67, 205322.8603896104},  {67, 209395.8603896104},
      {69, 199645.76515151517}, {67, 206049.09848484851},
      {67, 206049.09848484851}, {68, 218427.74134199135},
      {67, 205569.57467532466}, {67, 205322.8603896104},
      {66, 210847.8603896104},  {67, 205322.8603896104},
      {67, 205322.8603896104},  {67, 205322.8603896104},
  };
  for (std::size_t i = 0; i < design.candidates.size(); ++i) {
    const MvppGraph& g = design.candidates[i].graph;
    EXPECT_EQ(g.size(), expected[i].nodes) << "candidate " << i;
    const MvppEvaluator eval(g, options.maintenance);
    EXPECT_EQ(yang_heuristic(eval).costs.total(), expected[i].total)
        << "candidate " << i;
  }
}

}  // namespace
}  // namespace mvd
