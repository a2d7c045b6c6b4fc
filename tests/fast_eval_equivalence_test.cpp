// Equivalence of the bitset/incremental fast evaluation path with the
// std::set reference walk of MvppEvaluator, on the centralized cost model
// and on distributed ones (random 2–3 site topologies, whose placement
// adds transfer charges), plus determinism of the parallel search
// drivers. The fast path is constructed to mirror the reference
// floating-point operation order exactly, so most checks can demand
// bit-identical doubles; the randomized sweeps additionally accept a
// 1e-9 relative tolerance to keep the intent (numerical equivalence)
// separate from the stronger implementation guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.hpp"
#include "src/distributed/distributed_evaluator.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/fast_eval.hpp"
#include "src/mvpp/node_bitset.hpp"
#include "src/mvpp/selection.hpp"
#include "src/workload/generator.hpp"

namespace mvd {
namespace {

// ---- NodeBitset ------------------------------------------------------

TEST(NodeBitsetTest, BasicSetOperations) {
  NodeBitset b(130);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_FALSE(b.test(128));
  b.toggle(63);
  EXPECT_FALSE(b.test(63));
  b.toggle(63);
  EXPECT_TRUE(b.test(63));
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.to_vector(), (std::vector<NodeId>{0, 63, 129}));
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(NodeBitsetTest, ForEachVisitsAscending) {
  NodeBitset b(200);
  const std::vector<NodeId> ids = {3, 5, 63, 64, 65, 127, 128, 199};
  for (NodeId v : ids) b.set(v);
  std::vector<NodeId> seen;
  b.for_each([&](NodeId v) { seen.push_back(v); });
  EXPECT_EQ(seen, ids);
}

TEST(NodeBitsetTest, RoundTripWithMaterializedSet) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t universe = 1 + rng.index(150);
    MaterializedSet m;
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.chance(0.3)) m.insert(static_cast<NodeId>(i));
    }
    const FastMaterializedSet fast = to_fast_set(m, universe);
    EXPECT_EQ(fast.count(), m.size());
    EXPECT_EQ(to_materialized_set(fast), m);
  }
}

bool lex_less_ref(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

TEST(NodeBitsetTest, LexLessMatchesSortedSequenceComparison) {
  const std::vector<std::vector<NodeId>> cases = {
      {},           {0},         {1},         {1, 5},       {1, 3, 5},
      {5},          {63},        {63, 64},    {64},         {0, 64, 100},
      {0, 63, 127}, {100},       {1, 2, 3},   {1, 2, 3, 4},
  };
  for (const auto& va : cases) {
    for (const auto& vb : cases) {
      NodeBitset a(128), b(128);
      for (NodeId v : va) a.set(v);
      for (NodeId v : vb) b.set(v);
      EXPECT_EQ(NodeBitset::lex_less(a, b), lex_less_ref(va, vb))
          << "a=" << ::testing::PrintToString(va)
          << " b=" << ::testing::PrintToString(vb);
    }
  }
}

TEST(NodeBitsetTest, LexLessRandomized) {
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t universe = 1 + rng.index(130);
    NodeBitset a(universe), b(universe);
    std::vector<NodeId> va, vb;
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.chance(0.2)) {
        a.set(static_cast<NodeId>(i));
        va.push_back(static_cast<NodeId>(i));
      }
      if (rng.chance(0.2)) {
        b.set(static_cast<NodeId>(i));
        vb.push_back(static_cast<NodeId>(i));
      }
    }
    EXPECT_EQ(NodeBitset::lex_less(a, b), lex_less_ref(va, vb));
    EXPECT_EQ(NodeBitset::lex_less(b, a), lex_less_ref(vb, va));
  }
}

// ---- Workload fixtures -----------------------------------------------

struct Workload {
  Catalog catalog{10.0};
  MvppGraph graph;
};

Workload star_workload(std::uint64_t seed, std::size_t query_count) {
  Workload w;
  StarSchemaOptions schema;
  schema.dimensions = 3;
  w.catalog = make_star_catalog(schema);
  StarQueryOptions qopts;
  qopts.count = query_count;
  qopts.seed = seed;
  const std::vector<QuerySpec> queries =
      generate_star_queries(w.catalog, schema, qopts);
  const CostModel model(w.catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  w.graph = builder.build(queries, builder.initial_order(queries)).graph;
  return w;
}

Workload chain_workload(std::uint64_t seed, std::size_t query_count) {
  Workload w;
  ChainSchemaOptions schema;
  schema.length = 6;
  w.catalog = make_chain_catalog(schema);
  ChainQueryOptions qopts;
  qopts.count = query_count;
  qopts.seed = seed;
  const std::vector<QuerySpec> queries =
      generate_chain_queries(w.catalog, schema, qopts);
  const CostModel model(w.catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  w.graph = builder.build(queries, builder.initial_order(queries)).graph;
  return w;
}

std::vector<MaintenancePolicy> all_policies() {
  std::vector<MaintenancePolicy> out;
  for (auto mode : {MaintenancePolicy::Mode::kBatchRecompute,
                    MaintenancePolicy::Mode::kPerUpdate}) {
    for (bool reuse : {true, false}) {
      MaintenancePolicy p;
      p.mode = mode;
      p.reuse_materialized = reuse;
      out.push_back(p);
    }
  }
  return out;
}

std::vector<IndexPolicy> all_index_policies() {
  IndexPolicy off;
  IndexPolicy on;
  on.enabled = true;
  return {off, on};
}

/// 2–3 sites with random default and per-link prices; relations and
/// queries placed uniformly at random.
SiteTopology random_topology(const Workload& w, Rng& rng) {
  std::vector<std::string> sites;
  const std::size_t count = 2 + rng.index(2);
  for (std::size_t i = 0; i < count; ++i) {
    sites.push_back("site" + std::to_string(i));
  }
  SiteTopology topo(sites, 0.5 + 4.0 * rng.uniform01());
  for (std::size_t a = 0; a < count; ++a) {
    for (std::size_t b = a + 1; b < count; ++b) {
      if (rng.chance(0.5)) {
        topo.set_link_cost(sites[a], sites[b], 10.0 * rng.uniform01());
      }
    }
  }
  for (const std::string& relation : w.catalog.relation_names()) {
    topo.place_relation(relation, sites[rng.index(count)]);
  }
  for (NodeId q : w.graph.query_ids()) {
    topo.place_query(w.graph.node(q).name, sites[rng.index(count)]);
  }
  return topo;
}

MaterializedSet random_operation_subset(const MvppGraph& g, Rng& rng,
                                        double p) {
  MaterializedSet m;
  for (NodeId v : g.operation_ids()) {
    if (rng.chance(p)) m.insert(v);
  }
  return m;
}

void expect_close(double fast, double reference, const char* what) {
  // Bit-identical by construction; the tolerance states the contract.
  EXPECT_DOUBLE_EQ(fast, reference) << what;
  const double tol = 1e-9 * std::max(1.0, std::abs(reference));
  EXPECT_NEAR(fast, reference, tol) << what;
}

// ---- Full-evaluation equivalence -------------------------------------

void expect_random_sets_match(const MvppEvaluator& eval, Rng& rng) {
  FastMvppEvaluator fast(eval, eval.closures());
  for (int trial = 0; trial < 40; ++trial) {
    const MaterializedSet m =
        random_operation_subset(eval.graph(), rng, rng.uniform01());
    const MvppCosts reference = eval.evaluate(m);
    const MvppCosts got = fast.evaluate(to_fast_set(m, fast.universe()));
    expect_close(got.query_processing, reference.query_processing,
                 "query_processing_cost");
    expect_close(got.maintenance, reference.maintenance,
                 "total_maintenance_cost");
    expect_close(got.total(), reference.total(), "total_cost");
  }
}

TEST(FastEvalEquivalenceTest, RandomSetsMatchLegacyEvaluator) {
  Rng rng(1234);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const Workload& w :
         {star_workload(seed, 5), chain_workload(seed, 5)}) {
      for (const MaintenancePolicy& policy : all_policies()) {
        for (const IndexPolicy& index : all_index_policies()) {
          expect_random_sets_match(MvppEvaluator(w.graph, policy, index), rng);
        }
        SCOPED_TRACE("distributed");
        expect_random_sets_match(
            DistributedMvppEvaluator(w.graph, random_topology(w, rng), policy),
            rng);
      }
    }
  }
}

void expect_probes_match(const MvppEvaluator& eval, Rng& rng) {
  const std::vector<NodeId> ops = eval.graph().operation_ids();
  ASSERT_FALSE(ops.empty());
  FastMvppEvaluator fast(eval, eval.closures());

  MaterializedSet m = random_operation_subset(eval.graph(), rng, 0.4);
  fast.load(to_fast_set(m, fast.universe()));
  expect_close(fast.current_total(), eval.total_cost(m), "load");

  for (int step = 0; step < 120; ++step) {
    const NodeId v = ops[rng.index(ops.size())];
    MaterializedSet toggled = m;
    if (!toggled.erase(v)) toggled.insert(v);
    expect_close(fast.probe_toggle(v), eval.total_cost(toggled),
                 "probe_toggle");
    expect_close(fast.delta_cost(v),
                 eval.total_cost(toggled) - eval.total_cost(m), "delta_cost");

    // Swap probe: any member against any non-member.
    if (!m.empty() && m.size() < ops.size()) {
      const NodeId out = *m.begin();
      NodeId in = -1;
      for (NodeId c : ops) {
        if (!m.contains(c)) {
          in = c;
          break;
        }
      }
      MaterializedSet swapped = m;
      swapped.erase(out);
      swapped.insert(in);
      expect_close(fast.probe_swap(out, in), eval.total_cost(swapped),
                   "probe_swap");
    }

    if (rng.chance(0.5)) {
      fast.commit_toggle(v);
      m = std::move(toggled);
      expect_close(fast.current_total(), eval.total_cost(m), "commit_toggle");
      EXPECT_EQ(to_materialized_set(fast.current()), m);
    }
  }
}

TEST(FastEvalEquivalenceTest, IncrementalProbesMatchFullEvaluation) {
  Rng rng(99);
  for (std::uint64_t seed : {4u, 5u}) {
    for (const Workload& w :
         {star_workload(seed, 6), chain_workload(seed, 6)}) {
      for (const MaintenancePolicy& policy : all_policies()) {
        for (const IndexPolicy& index : all_index_policies()) {
          expect_probes_match(MvppEvaluator(w.graph, policy, index), rng);
        }
        SCOPED_TRACE("distributed");
        expect_probes_match(
            DistributedMvppEvaluator(w.graph, random_topology(w, rng), policy),
            rng);
      }
    }
  }
}

// ---- Exact searches vs a brute-force loop over total_cost ------------

/// The serial reference for the 2^n searches: price every subset of the
/// operation nodes with the std::set walk and keep the first strict
/// improvement (lowest cost, then lowest mask). `budget` < 0 means none.
MaterializedSet brute_force_optimum(const MvppEvaluator& eval,
                                    double budget) {
  const std::vector<NodeId> ops = eval.graph().operation_ids();
  double best = std::numeric_limits<double>::infinity();
  MaterializedSet best_set;
  for (std::size_t mask = 0; mask < (std::size_t{1} << ops.size()); ++mask) {
    MaterializedSet m;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (mask & (std::size_t{1} << i)) m.insert(ops[i]);
    }
    if (budget >= 0 && total_view_blocks(eval.graph(), m) > budget) continue;
    const double cost = eval.total_cost(m);
    if (cost < best) {
      best = cost;
      best_set = std::move(m);
    }
  }
  return best_set;
}

void expect_exact_searches_match_brute_force(const MvppEvaluator& eval) {
  const MvppGraph& g = eval.graph();
  const SelectionResult exhaustive = exhaustive_optimal(eval);
  const MaterializedSet brute = brute_force_optimum(eval, -1);
  EXPECT_EQ(exhaustive.materialized, brute);
  EXPECT_DOUBLE_EQ(exhaustive.costs.total(), eval.total_cost(brute));

  const double budget =
      0.5 * total_view_blocks(g, select_all_operations(eval).materialized);
  const SelectionResult budgeted = budgeted_optimal(eval, budget);
  const MaterializedSet brute_budgeted = brute_force_optimum(eval, budget);
  EXPECT_EQ(budgeted.materialized, brute_budgeted);
  EXPECT_DOUBLE_EQ(budgeted.costs.total(), eval.total_cost(brute_budgeted));
}

TEST(FastEvalEquivalenceTest, ExactSearchesMatchBruteForce) {
  Rng rng(61);
  for (std::uint64_t seed : {6u, 7u}) {
    for (const Workload& w :
         {star_workload(seed, 3), chain_workload(seed, 3)}) {
      ASSERT_LE(w.graph.operation_ids().size(), 14u);
      for (const MaintenancePolicy& policy : all_policies()) {
        expect_exact_searches_match_brute_force(
            MvppEvaluator(w.graph, policy));
        SCOPED_TRACE("distributed");
        expect_exact_searches_match_brute_force(
            DistributedMvppEvaluator(w.graph, random_topology(w, rng), policy));
      }
    }
  }
}

// ---- Parallel determinism --------------------------------------------

void expect_parallel_matches_serial(const MvppEvaluator& eval) {
  const SelectionResult serial = exhaustive_optimal(eval, 24, 1);
  for (std::size_t threads : {2u, 3u, 8u}) {
    const SelectionResult parallel = exhaustive_optimal(eval, 24, threads);
    EXPECT_EQ(parallel.materialized, serial.materialized)
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(parallel.costs.total(), serial.costs.total());
  }

  const double budget =
      0.4 * total_view_blocks(eval.graph(),
                              select_all_operations(eval).materialized);
  const SelectionResult bserial = budgeted_optimal(eval, budget, 22, 1);
  for (std::size_t threads : {2u, 5u}) {
    const SelectionResult bparallel =
        budgeted_optimal(eval, budget, 22, threads);
    EXPECT_EQ(bparallel.materialized, bserial.materialized)
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(bparallel.costs.total(), bserial.costs.total());
  }
}

TEST(FastEvalEquivalenceTest, ParallelExhaustiveIsBitIdenticalToSerial) {
  Rng rng(808);
  for (std::uint64_t seed : {8u, 9u, 10u}) {
    for (const Workload& w :
         {star_workload(seed, 6), chain_workload(seed, 6)}) {
      if (w.graph.operation_ids().size() > 18) continue;
      expect_parallel_matches_serial(MvppEvaluator(w.graph));
      SCOPED_TRACE("distributed");
      expect_parallel_matches_serial(
          DistributedMvppEvaluator(w.graph, random_topology(w, rng)));
    }
  }
}

TEST(FastEvalEquivalenceTest, ParallelRotationBuildMatchesSerial) {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  const Catalog catalog = make_star_catalog(schema);
  StarQueryOptions qopts;
  qopts.count = 6;
  qopts.seed = 21;
  const std::vector<QuerySpec> queries =
      generate_star_queries(catalog, schema, qopts);
  const CostModel model(catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);

  const std::vector<MvppBuildResult> serial =
      builder.build_all_rotations(queries, 1);
  const std::vector<MvppBuildResult> parallel =
      builder.build_all_rotations(queries, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].merge_order, parallel[i].merge_order);
    ASSERT_EQ(serial[i].graph.size(), parallel[i].graph.size());
    for (std::size_t v = 0; v < serial[i].graph.size(); ++v) {
      const MvppNode& a = serial[i].graph.node(static_cast<NodeId>(v));
      const MvppNode& b = parallel[i].graph.node(static_cast<NodeId>(v));
      EXPECT_EQ(a.label(), b.label());
      EXPECT_EQ(a.children, b.children);
      EXPECT_DOUBLE_EQ(a.full_cost, b.full_cost);
    }
    // Same selection outcome on both copies.
    const MvppEvaluator ea(serial[i].graph), eb(parallel[i].graph);
    EXPECT_EQ(yang_heuristic(ea).materialized, yang_heuristic(eb).materialized);
  }
}

// ---- Closures match the on-demand graph walks ------------------------

TEST(FastEvalEquivalenceTest, ClosuresMatchGraphWalks) {
  for (std::uint64_t seed : {11u, 12u}) {
    for (const Workload& w :
         {star_workload(seed, 5), chain_workload(seed, 5)}) {
      const GraphClosures closures(w.graph);
      for (std::size_t i = 0; i < w.graph.size(); ++i) {
        const NodeId v = static_cast<NodeId>(i);
        const std::set<NodeId> anc = w.graph.ancestors(v);
        const std::set<NodeId> desc = w.graph.descendants(v);
        EXPECT_EQ(closures.ancestors(v).to_vector(),
                  std::vector<NodeId>(anc.begin(), anc.end()));
        EXPECT_EQ(closures.descendants(v).to_vector(),
                  std::vector<NodeId>(desc.begin(), desc.end()));
        if (w.graph.node(v).is_operation()) {
          EXPECT_EQ(closures.queries_using(v), w.graph.queries_using(v));
          EXPECT_EQ(closures.bases_under(v), w.graph.bases_under(v));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mvd
