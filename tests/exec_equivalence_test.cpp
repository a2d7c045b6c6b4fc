// Differential tests between the row engine and the vectorized engine:
// every generated workload must produce the same bag of rows under both,
// the vectorized engine must be bit-identical (including row order)
// across thread counts, and both engines must agree on the stats the
// cost-model validation relies on (blocks_read, rows_out).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/algebra/query_spec.hpp"
#include "src/check/check.hpp"
#include "src/exec/executor.hpp"
#include "src/exec/sharded.hpp"
#include "src/obs/metrics.hpp"
#include "src/optimizer/optimizer.hpp"
#include "src/workload/generator.hpp"

namespace mvd {
namespace {

/// The static cardinality intervals must contain the rows every engine
/// actually produced, node by node.
void expect_cardinality_bounds(const Database& db, const PlanPtr& plan,
                               const ExecStats& stats) {
  CheckOptions opts;
  opts.database = &db;
  opts.maintainability = false;
  const CheckReport report = check_plan(plan, opts);
  EXPECT_TRUE(report.ok()) << report.render_text();
  for (const auto& [label, rows] : stats.rows_out) {
    const auto bounds = report.card_of(label);
    ASSERT_TRUE(bounds.has_value()) << label;
    EXPECT_TRUE(bounds->contains(rows))
        << label << ": " << rows << " outside [" << bounds->lo << ", "
        << bounds->hi << "]";
  }
}

void expect_rows_identical(const Table& a, const Table& b, const char* what) {
  ASSERT_EQ(a.row_count(), b.row_count()) << what;
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    ASSERT_TRUE(a.row(i) == b.row(i)) << what << ": row " << i << " differs";
  }
}

void expect_stats_identical(const ExecStats& a, const ExecStats& b,
                            const char* what) {
  EXPECT_DOUBLE_EQ(a.blocks_read, b.blocks_read) << what;
  EXPECT_DOUBLE_EQ(a.rows_scanned, b.rows_scanned) << what;
  EXPECT_DOUBLE_EQ(a.batches, b.batches) << what;
  EXPECT_EQ(a.rows_out, b.rows_out) << what;
  EXPECT_DOUBLE_EQ(a.rows_exchanged, b.rows_exchanged) << what;
  EXPECT_DOUBLE_EQ(a.blocks_exchanged, b.blocks_exchanged) << what;
}

/// Runs `plan` under the row engine and the vectorized engine at one and
/// four threads, asserting bag equivalence, cross-thread bit-identical
/// output, and stats parity.
void expect_engines_agree(const Database& db, const PlanPtr& plan) {
  SCOPED_TRACE(plan_tree_string(plan));
  const Executor row(db, ExecMode::kRow);
  const Executor vec1(db, ExecMode::kVectorized, 1);
  const Executor vec4(db, ExecMode::kVectorized, 4);

  ExecStats row_stats, vec1_stats, vec4_stats;
  const Table r = row.run(plan, &row_stats);
  const Table v1 = vec1.run(plan, &vec1_stats);
  const Table v4 = vec4.run(plan, &vec4_stats);

  EXPECT_TRUE(same_bag(r, v1));

  // Determinism: morsel boundaries are fixed and all merges happen in
  // morsel order, so the thread count may not change even the row order.
  expect_rows_identical(v1, v4, "vec 1 vs 4 threads");

  // Both engines charge the same block formulas per operator, so the
  // validation bench sees identical I/O accounting either way.
  EXPECT_DOUBLE_EQ(row_stats.blocks_read, vec1_stats.blocks_read);
  EXPECT_EQ(row_stats.rows_out, vec1_stats.rows_out);
  EXPECT_DOUBLE_EQ(row_stats.rows_scanned, vec1_stats.rows_scanned);

  // The thread count may not change a recorded stat.
  expect_stats_identical(vec1_stats, vec4_stats, "vec 1 vs 4 threads");

  // Static analysis rides along on every differential plan: the recorded
  // per-node rows land inside mvcheck's cardinality intervals.
  expect_cardinality_bounds(db, plan, row_stats);
}

/// Runs `plan` through the sharded layer at shards {1, 4} x threads
/// {1, 4} x both engines, asserting: same bag as unsharded row
/// execution, bit-identical output across every sharded configuration
/// (the bucket-order merge contract), and stats parity — row vs vec accounting agrees per configuration, and
/// for non-routed plans every (shards x threads) cell records identical
/// totals (routed point queries legitimately skip shards, changing the
/// block counts).
void expect_sharded_agree(const Database& db, const PlanPtr& plan,
                          const std::map<std::string, std::string>& keys) {
  SCOPED_TRACE(plan_tree_string(plan));
  const Executor row(db, ExecMode::kRow);
  const Table reference = row.run(plan);

  std::optional<Table> first;
  std::optional<ExecStats> first_stats;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedDatabase sdb = shard_database(db, shards, keys);
    const bool routed = analyze_shard_plan(plan, sdb).route_bucket.has_value();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const ShardedExecutor srow(sdb, ExecMode::kRow, threads);
      const ShardedExecutor svec(sdb, ExecMode::kVectorized, threads);
      ExecStats row_stats, vec_stats;
      const Table r = srow.run(plan, &row_stats);
      const Table v = svec.run(plan, &vec_stats);

      EXPECT_TRUE(same_bag(reference, r));
      EXPECT_TRUE(same_bag(reference, v));
      EXPECT_DOUBLE_EQ(row_stats.blocks_read, vec_stats.blocks_read);
      EXPECT_EQ(row_stats.rows_out, vec_stats.rows_out);
      EXPECT_DOUBLE_EQ(row_stats.rows_scanned, vec_stats.rows_scanned);

      if (!first.has_value()) {
        first = v;
        if (!routed) first_stats = vec_stats;
      } else {
        expect_rows_identical(*first, v,
                              "sharded vec across (shards x threads)");
        if (!routed && first_stats.has_value()) {
          expect_stats_identical(*first_stats, vec_stats,
                                 "sharded vec across (shards x threads)");
        }
      }
    }
  }
}

TEST(ExecEquivalenceTest, StarWorkloadCanonicalAndOptimizedPlans) {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  schema.fact_rows = 2'000;
  schema.dimension_rows = 200;
  const Database db = populate_star_database(schema, 21);
  const Catalog catalog = catalog_from_database(db, 10.0);

  StarQueryOptions queries;
  queries.count = 8;
  queries.max_dimensions = 3;
  queries.aggregation_probability = 0.5;  // mix SPJ and rollup queries
  queries.seed = 33;
  const CostModel cost_model(catalog, {});
  const Optimizer optimizer(cost_model);
  for (const QuerySpec& q : generate_star_queries(catalog, schema, queries)) {
    expect_engines_agree(db, canonical_plan(catalog, q));
    expect_engines_agree(db, optimizer.optimize(q));
  }
}

TEST(ExecEquivalenceTest, ChainWorkload) {
  ChainSchemaOptions schema;
  schema.length = 4;
  schema.rows = 1'000;
  const Database db = populate_chain_database(schema, 5);
  const Catalog catalog = catalog_from_database(db, 10.0);

  ChainQueryOptions queries;
  queries.count = 6;
  queries.max_span = 4;
  const CostModel cost_model(catalog, {});
  const Optimizer optimizer(cost_model);
  for (const QuerySpec& q : generate_chain_queries(catalog, schema, queries)) {
    expect_engines_agree(db, canonical_plan(catalog, q));
    expect_engines_agree(db, optimizer.optimize(q));
  }
}

class ExecEquivalenceEdgeTest : public ::testing::Test {
 protected:
  ExecEquivalenceEdgeTest() {
    Table t(Schema({{"k", ValueType::kInt64, ""},
                    {"name", ValueType::kString, ""},
                    {"x", ValueType::kDouble, ""}}),
            10.0);
    t.append({Value::int64(1), Value::string("a"), Value::real(1.5)});
    t.append({Value::int64(2), Value::string("b"), Value::real(2.5)});
    t.append({Value::int64(2), Value::string("c"), Value::real(3.5)});
    db_.add_table("T", std::move(t));
    Table s(Schema({{"k", ValueType::kInt64, ""},
                    {"tag", ValueType::kString, ""}}),
            10.0);
    s.append({Value::int64(1), Value::string("x")});
    s.append({Value::int64(2), Value::string("y")});
    s.append({Value::int64(3), Value::string("z")});
    db_.add_table("S", std::move(s));
    db_.add_table("Empty", Table(Schema({{"k", ValueType::kInt64, ""},
                                         {"y", ValueType::kInt64, ""}}),
                                 10.0));
    for (const char* name : {"T", "S", "Empty"}) {
      catalog_.add_relation(name, db_.table(name).schema(),
                            db_.table(name).compute_stats());
    }
  }

  Database db_;
  Catalog catalog_{10.0};
};

TEST_F(ExecEquivalenceEdgeTest, GlobalAggregateOverEmptyInput) {
  // SQL semantics: one output row (COUNT 0, SUM 0) even with no input.
  const PlanPtr plan = make_aggregate(
      make_scan(catalog_, "Empty"), {},
      {AggSpec{AggFn::kCount, "", ""}, AggSpec{AggFn::kSum, "Empty.y", ""}});
  expect_engines_agree(db_, plan);
  const Executor vec(db_, ExecMode::kVectorized, 4);
  const Table out = vec.run(plan);
  ASSERT_EQ(out.row_count(), 1u);
  EXPECT_EQ(out.row(0)[0].as_int64(), 0);
}

TEST_F(ExecEquivalenceEdgeTest, GroupedAggregateOverEmptyInput) {
  // With GROUP BY, an empty input yields an empty output.
  const PlanPtr plan = make_aggregate(make_scan(catalog_, "Empty"),
                                      {"Empty.k"},
                                      {AggSpec{AggFn::kCount, "", ""}});
  expect_engines_agree(db_, plan);
  const Executor vec(db_, ExecMode::kVectorized, 4);
  EXPECT_EQ(vec.run(plan).row_count(), 0u);
}

TEST_F(ExecEquivalenceEdgeTest, SelectWithNoSurvivors) {
  expect_engines_agree(db_, make_select(make_scan(catalog_, "T"),
                                        gt(col("T.k"), lit_i64(100))));
}

TEST_F(ExecEquivalenceEdgeTest, HashJoinWithEmptySide) {
  expect_engines_agree(db_, make_join(make_scan(catalog_, "T"),
                                      make_scan(catalog_, "Empty"),
                                      eq(col("T.k"), col("Empty.k"))));
}

TEST_F(ExecEquivalenceEdgeTest, CrossJoin) {
  expect_engines_agree(db_, make_join(make_scan(catalog_, "T"),
                                      make_scan(catalog_, "S"),
                                      lit(Value::boolean(true))));
}

TEST_F(ExecEquivalenceEdgeTest, ThetaJoinTakesNestedLoop) {
  expect_engines_agree(db_, make_join(make_scan(catalog_, "T"),
                                      make_scan(catalog_, "S"),
                                      lt(col("T.k"), col("S.k"))));
}

TEST_F(ExecEquivalenceEdgeTest, EquiJoinWithResidual) {
  expect_engines_agree(
      db_, make_join(make_scan(catalog_, "T"), make_scan(catalog_, "S"),
                     conj({eq(col("T.k"), col("S.k")),
                           cmp(CompareOp::kNe, col("S.tag"),
                               lit_str("x"))})));
}

TEST_F(ExecEquivalenceEdgeTest, MinMaxOnStringsAndDoubles) {
  const PlanPtr plan = make_aggregate(
      make_scan(catalog_, "T"), {"T.k"},
      {AggSpec{AggFn::kMin, "T.name", ""}, AggSpec{AggFn::kMax, "T.x", ""},
       AggSpec{AggFn::kSum, "T.x", ""}});
  expect_engines_agree(db_, plan);
}

// Per-operator accounting parity through the metrics registry: with
// counters on, both engines publish engine-agnostic totals under
// "exec/op/<name>/..." — the registry diff around a run must agree
// exactly between the row and vectorized engines, operator by operator
// (a finer-grained check than the whole-run ExecStats asserts above).
TEST(ExecEquivalenceTest, RegistryPerOperatorStatsParity) {
  set_trace_level(TraceLevel::kCounters);
  StarSchemaOptions schema;
  schema.dimensions = 2;
  schema.fact_rows = 1'500;
  schema.dimension_rows = 120;
  const Database db = populate_star_database(schema, 11);
  const Catalog catalog = catalog_from_database(db, 10.0);

  StarQueryOptions queries;
  queries.count = 4;
  queries.max_dimensions = 2;
  queries.aggregation_probability = 0.5;
  queries.seed = 7;
  const CostModel cost_model(catalog, {});
  const Optimizer optimizer(cost_model);

  const Executor row_exec(db, ExecMode::kRow);
  const Executor vec_exec(db, ExecMode::kVectorized, 4);
  const auto run_delta = [&](const Executor& exec, const PlanPtr& plan) {
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    exec.run(plan);
    return MetricsRegistry::global().snapshot().diff(before);
  };

  for (const QuerySpec& q : generate_star_queries(catalog, schema, queries)) {
    for (const PlanPtr& plan :
         {canonical_plan(catalog, q), optimizer.optimize(q)}) {
      SCOPED_TRACE(plan_tree_string(plan));
      const MetricsSnapshot r = run_delta(row_exec, plan);
      const MetricsSnapshot v = run_delta(vec_exec, plan);
      for (const char* op : {"scan", "select", "project", "join",
                             "aggregate"}) {
        for (const char* stat : {"blocks_read", "rows_scanned"}) {
          const std::string name =
              std::string("exec/op/") + op + "/" + stat;
          EXPECT_DOUBLE_EQ(r.value_of(name).value_or(0),
                           v.value_of(name).value_or(0))
              << name;
        }
      }
      EXPECT_DOUBLE_EQ(r.value_of("exec/total/blocks_read").value_or(0),
                       v.value_of("exec/total/blocks_read").value_or(0));
      EXPECT_DOUBLE_EQ(r.value_of("exec/total/rows_scanned").value_or(0),
                       v.value_of("exec/total/rows_scanned").value_or(0));
      EXPECT_DOUBLE_EQ(r.value_of("exec/row/runs").value_or(0), 1.0);
      EXPECT_DOUBLE_EQ(v.value_of("exec/vec/runs").value_or(0), 1.0);
    }
  }
  set_trace_level(std::nullopt);
}

// Randomized differential fuzzing across both engines: random
// select/project chains (typed-loop and per-row-fallback predicates
// alike), equi-joins and aggregates over mixed column types, run row vs
// vec at 1 and 4 threads via expect_engines_agree.
// NaN is deliberately excluded from the data (Value::compare ordering on
// NaN is unspecified between engines); -0.0 is included.
TEST(ExecEquivalenceTest, RandomizedChainFuzz) {
  std::mt19937 rng(20260807);

  Database db;
  Table f(Schema({{"a", ValueType::kInt64, ""},
                  {"b", ValueType::kDouble, ""},
                  {"s", ValueType::kString, ""},
                  {"flag", ValueType::kBool, ""},
                  {"c", ValueType::kInt64, ""},
                  {"d", ValueType::kDate, ""}}),
          10.0);
  const char* words[] = {"red", "green", "blue", "cyan", "teal"};
  std::uniform_int_distribution<int> ai(0, 50), ci(-20, 20), wi(0, 4),
      bi(0, 1), di(18'000, 18'030);
  std::uniform_real_distribution<double> bd(-5.0, 5.0);
  for (int i = 0; i < 5'000; ++i) {  // three morsels
    double b = bd(rng);
    if (i % 97 == 0) b = -0.0;  // exercise signed-zero key handling
    f.append({Value::int64(ai(rng)), Value::real(b),
              Value::string(words[wi(rng)]), Value::boolean(bi(rng) == 1),
              Value::int64(ci(rng)), Value::date(di(rng))});
  }
  db.add_table("F", std::move(f));
  Table d(Schema({{"key", ValueType::kInt64, ""},
                  {"weight", ValueType::kDouble, ""},
                  {"tag", ValueType::kString, ""}}),
          10.0);
  for (int i = 0; i < 300; ++i) {
    d.append({Value::int64(i % 60), Value::real(bd(rng)),
              Value::string(words[wi(rng)])});
  }
  db.add_table("D", std::move(d));
  Catalog catalog(10.0);
  for (const char* name : {"F", "D"}) {
    catalog.add_relation(name, db.table(name).schema(),
                         db.table(name).compute_stats());
  }

  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  auto any_op = [&] { return ops[rng() % 6]; };
  const std::vector<std::string> f_cols = {"F.a", "F.b", "F.s",
                                           "F.flag", "F.c", "F.d"};

  for (int iter = 0; iter < 40; ++iter) {
    SCOPED_TRACE("fuzz iteration " + std::to_string(iter));
    PlanPtr plan = make_scan(catalog, "F");
    // Random select/project chain, 1-4 operators deep. Projects drop a
    // random suffix of the live columns ("F.a" always survives, the join
    // below needs it); selects draw conjuncts over whatever is live.
    std::vector<std::string> live = f_cols;
    auto has = [&](const char* c) {
      return std::find(live.begin(), live.end(), c) != live.end();
    };
    // One random conjunct over the live columns: mostly typed-loop
    // shapes, sometimes a bool comparison (the vec engine's per-row
    // fallback).
    auto random_conjunct = [&]() -> ExprPtr {
      while (true) {
        switch (rng() % 8) {
          case 0:
            return cmp(any_op(), col("F.a"), lit_i64(ai(rng)));
          case 1:
            if (has("F.b")) return cmp(any_op(), col("F.b"),
                                       lit_real(bd(rng)));
            break;
          case 2:
            if (has("F.s")) return cmp(any_op(), col("F.s"),
                                       lit_str(words[wi(rng)]));
            break;
          case 3:
            if (has("F.c")) return cmp(any_op(), col("F.a"), col("F.c"));
            break;
          case 4:
            if (has("F.b")) return cmp(any_op(), col("F.b"), col("F.a"));
            break;
          case 5:  // flipped literal-first date comparison
            if (has("F.d")) return cmp(any_op(), lit_i64(di(rng)),
                                       col("F.d"));
            break;
          case 6:
            if (has("F.flag")) return cmp(any_op(), col("F.flag"),
                                          lit(Value::boolean(true)));
            break;
          default:
            if (has("F.c")) return cmp(any_op(), col("F.c"),
                                       lit_i64(ci(rng)));
            break;
        }
      }
    };
    const int chain_len = 1 + static_cast<int>(rng() % 4);
    for (int o = 0; o < chain_len; ++o) {
      if (rng() % 3 == 0 && live.size() > 2) {
        std::shuffle(live.begin() + 1, live.end(), rng);
        live.resize(2 + rng() % (live.size() - 1));
        plan = make_project(plan, live);
      } else {
        std::vector<ExprPtr> cs;
        const int nc = 1 + static_cast<int>(rng() % 3);
        for (int c = 0; c < nc; ++c) cs.push_back(random_conjunct());
        plan = make_select(plan, conj(std::move(cs)));
      }
    }
    if (rng() % 2 == 0) {
      plan = make_join(plan, make_scan(catalog, "D"),
                       eq(col("F.a"), col("D.key")));
      if (rng() % 2 == 0) {
        plan = make_select(plan, cmp(any_op(), col("D.weight"),
                                     lit_real(bd(rng))));
      }
    }
    if (rng() % 3 == 0) {
      const AggFn fns[] = {AggFn::kCount, AggFn::kSum, AggFn::kAvg,
                           AggFn::kMin, AggFn::kMax};
      const AggFn fn = fns[rng() % 5];
      const std::string agg_col =
          fn == AggFn::kCount ? std::string()
                              : (has("F.b") ? "F.b" : "F.a");
      std::vector<std::string> group_candidates = {"F.a"};
      for (const char* g : {"F.b", "F.flag", "F.c"}) {
        if (has(g)) group_candidates.push_back(g);
      }
      plan = make_aggregate(
          plan, {group_candidates[rng() % group_candidates.size()]},
          {AggSpec{fn, agg_col, "agg"}});
    }
    expect_engines_agree(db, plan);
  }
}

// The sharded layer joins the differential matrix: the same star
// workload, run at shards {1, 4} x threads {1, 4} x both engines
// through ShardedExecutor over a Fact-partitioned layout.
TEST(ShardedExecEquivalenceTest, StarWorkloadShardsTimesThreads) {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  schema.fact_rows = 2'000;
  schema.dimension_rows = 200;
  const Database db = populate_star_database(schema, 21);
  const Catalog catalog = catalog_from_database(db, 10.0);

  StarQueryOptions queries;
  queries.count = 6;
  queries.max_dimensions = 3;
  queries.aggregation_probability = 0.5;
  queries.seed = 33;
  const CostModel cost_model(catalog, {});
  const Optimizer optimizer(cost_model);
  const std::map<std::string, std::string> keys{{"Fact", "d0"}};
  for (const QuerySpec& q : generate_star_queries(catalog, schema, queries)) {
    expect_sharded_agree(db, canonical_plan(catalog, q), keys);
    expect_sharded_agree(db, optimizer.optimize(q), keys);
  }
}

// A routed point query — equality on the partition key directly above
// the fact scan — must return the same rows at every shard count while
// touching fewer blocks as the shard count grows (the skipped shards are
// where the single-core speedup comes from).
TEST(ShardedExecEquivalenceTest, RoutedPointQueryScansFewerBlocks) {
  StarSchemaOptions schema;
  schema.dimensions = 2;
  schema.fact_rows = 4'000;
  schema.dimension_rows = 100;
  const Database db = populate_star_database(schema, 13);
  const Catalog catalog = catalog_from_database(db, 10.0);
  const std::map<std::string, std::string> keys{{"Fact", "d0"}};

  const PlanPtr plan =
      make_select(make_scan(catalog, "Fact"), eq(col("Fact.d0"), lit_i64(7)));

  ShardedDatabase one = shard_database(db, 1, keys);
  ShardedDatabase eight = shard_database(db, 8, keys);
  ASSERT_TRUE(analyze_shard_plan(plan, eight).route_bucket.has_value());

  ExecStats stats1, stats8;
  const Table a = ShardedExecutor(one, ExecMode::kVectorized, 1)
                      .run(plan, &stats1);
  const Table b = ShardedExecutor(eight, ExecMode::kVectorized, 4)
                      .run(plan, &stats8);
  expect_rows_identical(a, b, "routed point query across shard counts");
  ASSERT_GT(a.row_count(), 0u);
  EXPECT_LT(stats8.blocks_read, stats1.blocks_read);
}

// Small fixture exercised under ThreadSanitizer in CI: a join + aggregate
// pipeline over enough rows for several morsels, run at four threads.
TEST(ExecEngineTsanTest, ParallelPipelineIsRaceFreeAndDeterministic) {
  StarSchemaOptions schema;
  schema.dimensions = 2;
  schema.fact_rows = 6'000;  // three morsels of fact rows
  schema.dimension_rows = 100;
  const Database db = populate_star_database(schema, 9);
  const Catalog catalog = catalog_from_database(db, 10.0);

  const PlanPtr plan = make_aggregate(
      make_select(make_join(make_scan(catalog, "Fact"),
                            make_scan(catalog, "Dim0"),
                            eq(col("Fact.d0"), col("Dim0.id"))),
                  gt(col("Fact.measure"), lit_i64(200))),
      {"Dim0.category"},
      {AggSpec{AggFn::kSum, "Fact.measure", ""},
       AggSpec{AggFn::kCount, "", ""}});

  const Executor vec1(db, ExecMode::kVectorized, 1);
  const Executor vec4(db, ExecMode::kVectorized, 4);
  const Table a = vec1.run(plan);
  const Table b = vec4.run(plan);
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    EXPECT_TRUE(a.row(i) == b.row(i));
  }
}

// Same shape with an int64 group key, also in the CI TSan filter: the
// aggregate takes the packed-key COUNT/SUM path (the test above covers
// the string-key Accumulator path), the select the int64 literal loop
// and the join the exact numeric key — all morsel-parallel at four
// threads.
TEST(ExecKernelTsanTest, IntKeyPipelineIsRaceFreeAndDeterministic) {
  StarSchemaOptions schema;
  schema.dimensions = 2;
  schema.fact_rows = 6'000;  // three morsels of fact rows
  schema.dimension_rows = 100;
  const Database db = populate_star_database(schema, 9);
  const Catalog catalog = catalog_from_database(db, 10.0);

  const PlanPtr plan = make_aggregate(
      make_select(make_join(make_scan(catalog, "Fact"),
                            make_scan(catalog, "Dim0"),
                            eq(col("Fact.d0"), col("Dim0.id"))),
                  gt(col("Fact.measure"), lit_i64(200))),
      {"Fact.d0"},
      {AggSpec{AggFn::kSum, "Fact.measure", ""},
       AggSpec{AggFn::kCount, "", ""}});

  const Executor vec1(db, ExecMode::kVectorized, 1);
  const Executor vec4(db, ExecMode::kVectorized, 4);
  const Table a = vec1.run(plan);
  const Table b = vec4.run(plan);
  ASSERT_GT(a.row_count(), 1u);
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    EXPECT_TRUE(a.row(i) == b.row(i));
  }
}

// Sharded counterpart for the CI TSan filter: shards execute on worker
// threads with morsel parallelism inside each bucket, partials merge on
// the calling thread — 4 shards x 4 threads must match the 1 x 1 layout
// bit for bit.
TEST(DistributedExecTsanTest, ShardedPipelineIsRaceFreeAndDeterministic) {
  StarSchemaOptions schema;
  schema.dimensions = 2;
  schema.fact_rows = 6'000;  // three morsels of fact rows per bucket run
  schema.dimension_rows = 100;
  const Database db = populate_star_database(schema, 9);
  const Catalog catalog = catalog_from_database(db, 10.0);
  const std::map<std::string, std::string> keys{{"Fact", "d0"}};

  const PlanPtr plan = make_aggregate(
      make_select(make_join(make_scan(catalog, "Fact"),
                            make_scan(catalog, "Dim0"),
                            eq(col("Fact.d0"), col("Dim0.id"))),
                  gt(col("Fact.measure"), lit_i64(200))),
      {"Dim0.category"},
      {AggSpec{AggFn::kSum, "Fact.measure", ""},
       AggSpec{AggFn::kCount, "", ""}});

  ShardedDatabase serial = shard_database(db, 1, keys);
  ShardedDatabase wide = shard_database(db, 4, keys);
  const Table a = ShardedExecutor(serial, ExecMode::kVectorized, 1).run(plan);
  const Table b = ShardedExecutor(wide, ExecMode::kVectorized, 4).run(plan);
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    EXPECT_TRUE(a.row(i) == b.row(i));
  }
}

}  // namespace
}  // namespace mvd
