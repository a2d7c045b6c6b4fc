// Differential agreement between the engines and mvcheck, on plan shapes
// built to sit exactly on the select path's boundaries: OR/NOT
// predicates (per-row fallback), bool and mixed-type comparisons,
// shared interior DAG nodes, degenerate literal predicates,
// pure-projection chains, selects over aggregates, and int64 columns
// compared against literals at the edges of the exact int64 rewrite. The
// vectorized engine must return the row engine's bag and identical rows
// and ExecStats at one and four threads; mvcheck's cardinality intervals
// must contain what every engine produced. The engine-equivalence fuzzer
// covers the common shapes; this file covers the edges, plus a fuzzer of
// its own so every boundary is crossed many times per run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>

#include "src/check/check.hpp"
#include "src/exec/executor.hpp"
#include "src/exec/sharded.hpp"

namespace mvd {
namespace {

/// Row vs vectorized at one and four threads: the same bag as the row
/// engine, and identical rows and ExecStats between the thread counts.
void expect_engines_agree(const Database& db, const PlanPtr& plan) {
  SCOPED_TRACE(plan_tree_string(plan));
  const Table r = Executor(db, ExecMode::kRow).run(plan);
  ExecStats s1, s4;
  const Table v1 = Executor(db, ExecMode::kVectorized, 1).run(plan, &s1);
  const Table v4 = Executor(db, ExecMode::kVectorized, 4).run(plan, &s4);
  EXPECT_TRUE(same_bag(r, v1));
  ASSERT_EQ(v1.row_count(), v4.row_count());
  for (std::size_t i = 0; i < v1.row_count(); ++i) {
    ASSERT_TRUE(v1.row(i) == v4.row(i)) << "row " << i;
  }
  EXPECT_DOUBLE_EQ(s1.blocks_read, s4.blocks_read);
  EXPECT_DOUBLE_EQ(s1.rows_scanned, s4.rows_scanned);
  EXPECT_DOUBLE_EQ(s1.batches, s4.batches);
  EXPECT_EQ(s1.rows_out, s4.rows_out);
}

class CheckAgreementTest : public ::testing::Test {
 protected:
  CheckAgreementTest() {
    Table t(Schema({{"a", ValueType::kInt64, ""},
                    {"b", ValueType::kDouble, ""},
                    {"s", ValueType::kString, ""},
                    {"flag", ValueType::kBool, ""}}),
            10.0);
    std::mt19937 rng(7);
    const char* words[] = {"x", "y", "z"};
    for (int i = 0; i < 5'000; ++i) {  // three morsels
      t.append({Value::int64(static_cast<std::int64_t>(rng() % 40)),
                Value::real(static_cast<double>(rng() % 100) / 10.0 - 5.0),
                Value::string(words[rng() % 3]),
                Value::boolean(rng() % 2 == 0)});
    }
    db_.add_table("T", std::move(t));
    Table d(Schema({{"key", ValueType::kInt64, ""},
                    {"w", ValueType::kDouble, ""}}),
            10.0);
    for (int i = 0; i < 60; ++i) {
      d.append({Value::int64(i % 40), Value::real(i * 0.25)});
    }
    db_.add_table("D", std::move(d));
    for (const char* name : {"T", "D"}) {
      catalog_.add_relation(name, db_.table(name).schema(),
                            db_.table(name).compute_stats());
    }
  }

  PlanPtr scan_t() const { return make_scan(catalog_, "T"); }

  Database db_;
  Catalog catalog_{10.0};
};

TEST_F(CheckAgreementTest, RefusalEdges) {
  // Each plan sits on one boundary of the select path: typed loops on
  // one side, the per-row fallback on the other.
  const std::vector<PlanPtr> plans = {
      // Typed comparisons over a scan: dense-range first conjunct.
      make_select(scan_t(), conj({gt(col("T.a"), lit_i64(10)),
                                  lt(col("T.b"), lit_real(2.0))})),
      // OR predicate: per-row fallback.
      make_select(scan_t(), disj({gt(col("T.a"), lit_i64(10)),
                                  lt(col("T.b"), lit_real(0.0))})),
      // NOT predicate: per-row fallback.
      make_select(scan_t(), neg(gt(col("T.a"), lit_i64(10)))),
      // Bool column comparison: per-row fallback.
      make_select(scan_t(), eq(col("T.flag"), lit(Value::boolean(true)))),
      // Mixed int/double column-column comparison.
      make_select(scan_t(), lt(col("T.b"), col("T.a"))),
      // String comparisons, both operand shapes.
      make_select(scan_t(), conj({eq(col("T.s"), lit_str("x")),
                                  cmp(CompareOp::kNe, col("T.s"),
                                      col("T.s"))})),
      // Literal-only predicate.
      make_select(scan_t(), lit(Value::boolean(true))),
      // Fallback first conjunct, typed second one over its survivors.
      make_select(scan_t(), conj({eq(col("T.flag"), lit(Value::boolean(true))),
                                  gt(col("T.a"), lit_real(20.5))})),
      // Pure-projection chain: no select.
      make_project(make_project(scan_t(), {"T.a", "T.b", "T.s"}),
                   {"T.a", "T.b"}),
      // Project over select over project: the select's input is still
      // an unfiltered range.
      make_project(
          make_select(make_project(scan_t(), {"T.a", "T.b"}),
                      gt(col("T.a"), lit_i64(5))),
          {"T.b"}),
      // Select over select: the second filters a selection vector.
      make_select(make_select(scan_t(), gt(col("T.a"), lit_i64(5))),
                  cmp(CompareOp::kLe, col("T.a"), lit_real(30.5))),
      // Select directly over an aggregate.
      make_select(
          make_aggregate(scan_t(), {"T.a"}, {AggSpec{AggFn::kCount, "", "n"}}),
          gt(col("n"), lit_i64(3))),
  };
  for (const PlanPtr& plan : plans) expect_engines_agree(db_, plan);
}

TEST_F(CheckAgreementTest, SharedInteriorNodesBreakChains) {
  // A select shared by two parents executes once per run (the engines
  // memoize). The two branches project/aggregate to disjoint schemas so
  // the joining root is legal.
  const PlanPtr shared = make_select(scan_t(), gt(col("T.a"), lit_i64(5)));
  const PlanPtr rows = make_project(shared, {"T.a", "T.b"});
  const PlanPtr counts = make_aggregate(shared, {"T.s"},
                                        {AggSpec{AggFn::kCount, "", "n"}});
  const PlanPtr top = make_join(rows, counts, lit(Value::boolean(true)));
  expect_engines_agree(db_, top);

  // Scanned rows add up with the shared scan + select charged once: the
  // two branches alone, minus one copy of the shared select, plus the
  // nested-loop join reading both branch outputs.
  for (const ExecMode mode : {ExecMode::kRow, ExecMode::kVectorized}) {
    const Executor exec(db_, mode, 4);
    const auto scanned = [&](const PlanPtr& p) {
      ExecStats s;
      exec.run(p, &s);
      return s;
    };
    const ExecStats all = scanned(top);
    const double expected = scanned(rows).rows_scanned +
                            scanned(counts).rows_scanned -
                            scanned(shared).rows_scanned +
                            all.rows_out.at(rows->label()) +
                            all.rows_out.at(counts->label());
    EXPECT_DOUBLE_EQ(all.rows_scanned, expected) << exec_mode_name(mode);
  }
}

TEST_F(CheckAgreementTest, FuzzedBoundaryChains) {
  // 60 random plans biased toward the select path's edges: every
  // conjunct shape above appears with equal probability, chains are 1-5
  // deep, half the plans join a second relation and filter above it.
  std::mt19937 rng(20260807);
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  auto any_op = [&] { return ops[rng() % 6]; };
  auto conjunct = [&]() -> ExprPtr {
    switch (rng() % 9) {
      case 0:
        return cmp(any_op(), col("T.a"), lit_i64(rng() % 40));
      case 1:
        return cmp(any_op(), col("T.b"), lit_real(rng() % 10 - 5.0));
      case 2:
        return cmp(any_op(), col("T.s"), lit_str("y"));
      case 3:
        return cmp(any_op(), col("T.b"), col("T.a"));  // mixed types
      case 4:
        return eq(col("T.flag"), lit(Value::boolean(rng() % 2 == 0)));
      case 5:
        return disj({gt(col("T.a"), lit_i64(rng() % 40)),
                     lt(col("T.a"), lit_i64(rng() % 10))});
      case 6:
        return neg(eq(col("T.s"), lit_str("x")));
      case 7:  // int64 column vs fractional literal, literal first
        return cmp(any_op(), lit_real(static_cast<double>(rng() % 80) / 2.0),
                   col("T.a"));
      default:
        return lit(Value::boolean(rng() % 2 == 0));
    }
  };
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE("fuzz iteration " + std::to_string(iter));
    PlanPtr plan = scan_t();
    std::vector<std::string> live = {"T.a", "T.b", "T.s", "T.flag"};
    const int depth = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < depth; ++i) {
      if (rng() % 4 == 0 && live.size() > 2) {
        live.resize(live.size() - 1);
        plan = make_project(plan, live);
      } else {
        std::vector<ExprPtr> cs;
        const int nc = 1 + static_cast<int>(rng() % 3);
        for (int c = 0; c < nc; ++c) {
          ExprPtr e = conjunct();
          // Retry conjuncts over dropped columns; literals always bind.
          const std::set<std::string> cols = columns_of(e);
          const bool ok = std::all_of(
              cols.begin(), cols.end(), [&](const std::string& name) {
                return std::find(live.begin(), live.end(), name) !=
                       live.end();
              });
          if (ok) cs.push_back(std::move(e));
        }
        if (cs.empty()) cs.push_back(lit(Value::boolean(true)));
        plan = make_select(plan, conj(std::move(cs)));
      }
    }
    if (rng() % 2 == 0) {
      plan = make_join(plan, make_scan(catalog_, "D"),
                       eq(col("T.a"), col("D.key")));
      plan = make_select(plan, cmp(any_op(), col("D.w"), lit_real(3.0)));
    }
    expect_engines_agree(db_, plan);
  }
}

TEST(SelectBoundaryTest, Int64LiteralComparisonsMatchRowEngine) {
  // The vectorized select compares an int64 column against a numeric
  // literal as a pure int64 loop when that is exact (|literal| < 2^52)
  // and through double otherwise, like the row engine always does. Pin
  // both sides of that boundary: six ops x literals on either side, over
  // column values at and around every literal, on a first conjunct (dense
  // range) and a second one (selection vector).
  constexpr std::int64_t k = 7;
  constexpr std::int64_t p52 = std::int64_t{1} << 52;
  constexpr std::int64_t p53 = std::int64_t{1} << 53;
  const std::vector<Value> literals = {
      Value::int64(k),           Value::int64(-k),
      Value::real(k + 0.5),      Value::real(-k - 0.5),
      Value::real(-0.0),         Value::int64(p52 - 1),
      Value::int64(-(p52 - 1)),  Value::real(p52 - 0.5),
      Value::real(-(p52 - 0.5)), Value::int64(p52),
      Value::int64(-p52),        Value::real(static_cast<double>(p52)),
      Value::int64(p53 + 1),     Value::int64(-(p53 + 1)),
      Value::real(static_cast<double>(p53 + 2)),
  };
  std::vector<std::int64_t> values = {
      0, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (const Value& l : literals) {
    const auto at = static_cast<std::int64_t>(std::floor(l.as_double()));
    for (std::int64_t d = -2; d <= 3; ++d) values.push_back(at + d);
  }
  Table t(Schema({{"id", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}}),
          10.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    t.append({Value::int64(static_cast<std::int64_t>(i)),
              Value::int64(values[i])});
  }
  Database db;
  db.add_table("T", std::move(t));
  Catalog catalog(10.0);
  catalog.add_relation("T", db.table("T").schema(),
                       db.table("T").compute_stats());

  const Executor row(db, ExecMode::kRow);
  const Executor vec(db, ExecMode::kVectorized, 1);
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (const Value& l : literals) {
    for (const CompareOp op : ops) {
      for (const bool literal_first : {false, true}) {
        const ExprPtr c = literal_first ? cmp(op, lit(l), col("T.v"))
                                        : cmp(op, col("T.v"), lit(l));
        for (const ExprPtr& pred :
             {c, conj({cmp(CompareOp::kGe, col("T.id"), lit_i64(0)), c})}) {
          const PlanPtr plan = make_select(make_scan(catalog, "T"), pred);
          SCOPED_TRACE(pred->to_string());
          const Table want = row.run(plan);
          const Table got = vec.run(plan);
          ASSERT_EQ(want.row_count(), got.row_count());
          for (std::size_t i = 0; i < want.row_count(); ++i) {
            ASSERT_TRUE(want.row(i) == got.row(i)) << "row " << i;
          }
        }
      }
    }
  }
}

TEST_F(CheckAgreementTest, CardinalityBoundsHoldAcrossEngines) {
  const std::vector<PlanPtr> plans = {
      make_select(scan_t(), gt(col("T.a"), lit_i64(20))),
      make_join(make_select(scan_t(), lt(col("T.a"), lit_i64(30))),
                make_scan(catalog_, "D"), eq(col("T.a"), col("D.key"))),
      make_aggregate(scan_t(), {"T.s"}, {AggSpec{AggFn::kCount, "", "n"},
                                         AggSpec{AggFn::kSum, "T.b", "sb"}}),
      make_aggregate(scan_t(), {}, {AggSpec{AggFn::kCount, "", "n"}}),
  };
  CheckOptions opts;
  opts.database = &db_;
  for (const PlanPtr& plan : plans) {
    SCOPED_TRACE(plan_tree_string(plan));
    const CheckReport report = check_plan(plan, opts);
    EXPECT_TRUE(report.ok()) << report.render_text();
    for (const ExecMode mode : {ExecMode::kRow, ExecMode::kVectorized}) {
      ExecStats stats;
      Executor(db_, mode).run(plan, &stats);
      for (const auto& [label, rows] : stats.rows_out) {
        const auto bounds = report.card_of(label);
        ASSERT_TRUE(bounds.has_value()) << label;
        EXPECT_TRUE(bounds->contains(rows))
            << label << ": " << rows << " outside [" << bounds->lo << ", "
            << bounds->hi << "]";
      }
    }
  }
}

TEST_F(CheckAgreementTest, CardinalityBoundsHoldUnderShardedExecution) {
  // mvcheck's CardIntervals are derived for single-site plans; sharded
  // execution must not escape them. Two levels are checked per plan:
  //
  //   final merge    the coordinator result row count sits inside the
  //                  root's static bounds, and for aggregate spines the
  //                  merged group count sits inside the aggregate's;
  //   partials       a bucket sees a subset of the input, so its partial
  //                  group count cannot exceed the whole input's upper
  //                  bound — a shard owning k buckets ships at most
  //                  k x hi partial rows, and all shards together at
  //                  least the merged row count.
  const PlanPtr grouped = make_aggregate(
      scan_t(), {"T.s"},
      {AggSpec{AggFn::kCount, "", "n"}, AggSpec{AggFn::kSum, "T.b", "sb"}});
  struct Case {
    PlanPtr plan;
    bool expect_partials;
  };
  const std::vector<Case> cases = {
      {grouped, true},                                             // root agg
      {make_select(grouped, gt(col("n"), lit_i64(0))), true},      // interior
      {make_aggregate(scan_t(), {}, {AggSpec{AggFn::kCount, "", "n"}}), true},
      {make_join(make_select(scan_t(), lt(col("T.a"), lit_i64(30))),
                 make_scan(catalog_, "D"), eq(col("T.a"), col("D.key"))),
       false},
  };
  CheckOptions opts;
  opts.database = &db_;
  for (const Case& c : cases) {
    SCOPED_TRACE(plan_tree_string(c.plan));
    const CheckReport report = check_plan(c.plan, opts);
    EXPECT_TRUE(report.ok()) << report.render_text();

    Database sdb = shard_database(db_, 4, {{"T", "a"}});
    ExecStats stats;
    const Table out = ShardedExecutor(sdb).run(c.plan, &stats);

    const auto root = report.card_of(c.plan->label());
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(root->contains(static_cast<double>(out.row_count())))
        << out.row_count() << " outside [" << root->lo << ", " << root->hi
        << "]";

    bool saw_partials = false;
    for (const auto& [label, total] : stats.rows_out) {
      if (label.rfind("partial(", 0) != 0) continue;
      saw_partials = true;
      const std::string inner = label.substr(8, label.size() - 9);
      const auto bounds = report.card_of(inner);
      ASSERT_TRUE(bounds.has_value()) << inner;
      const auto merged = stats.rows_out.find(inner);
      ASSERT_NE(merged, stats.rows_out.end()) << inner;
      EXPECT_TRUE(bounds->contains(merged->second))
          << inner << ": merged " << merged->second << " outside ["
          << bounds->lo << ", " << bounds->hi << "]";

      ASSERT_EQ(stats.per_shard.size(), sdb.shards());
      double partial_total = 0;
      for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
        const auto it = stats.per_shard[s].rows_out.find(label);
        if (it == stats.per_shard[s].rows_out.end()) continue;
        const auto [b0, b1] = sdb.bucket_range(s);
        EXPECT_LE(it->second, bounds->hi * static_cast<double>(b1 - b0))
            << label << " on shard " << s;
        partial_total += it->second;
      }
      EXPECT_DOUBLE_EQ(partial_total, total) << label;
      EXPECT_GE(partial_total, merged->second) << label;
    }
    EXPECT_EQ(saw_partials, c.expect_partials);
  }
}

}  // namespace
}  // namespace mvd
