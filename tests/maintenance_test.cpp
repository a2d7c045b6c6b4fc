// Tests for src/maintenance: the incremental delta-cost model and the
// synthetic update stream.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/exec/executor.hpp"
#include "src/maintenance/incremental.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/evaluation.hpp"
#include "src/sql/parser.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

class IncrementalTest : public ::testing::Test {
 protected:
  IncrementalTest()
      : catalog_(make_paper_catalog()),
        model_(catalog_, paper_cost_config()),
        graph_(build_figure3_mvpp(model_)) {}

  NodeId id(const std::string& name) const {
    return graph_.find_by_name(name);
  }

  Catalog catalog_;
  CostModel model_;
  MvppGraph graph_;
};

TEST_F(IncrementalTest, UnrelatedBaseCostsNothing) {
  // tmp1 (over Division) is untouched by Order updates.
  const NodeId order = graph_.find_by_name("Order");
  EXPECT_DOUBLE_EQ(
      incremental_delta_cost(graph_, id("tmp1"), order, {0.01}), 0.0);
}

TEST_F(IncrementalTest, DeltaCostScalesWithFraction) {
  const NodeId division = graph_.find_by_name("Division");
  const double small =
      incremental_delta_cost(graph_, id("tmp2"), division, {0.01});
  const double large =
      incremental_delta_cost(graph_, id("tmp2"), division, {0.10});
  EXPECT_GT(small, 0);
  EXPECT_GT(large, small);
  EXPECT_NEAR(large / small, 10.0, 1.0);  // roughly linear
}

TEST_F(IncrementalTest, SmallDeltasBeatRecompute) {
  // The extension's headline: at 1% updates, incremental maintenance of
  // the chosen views is far cheaper than recompute.
  const MvppEvaluator eval(graph_);
  const MaterializedSet m{id("tmp2"), id("tmp4")};
  const double recompute = eval.total_maintenance_cost(m);
  const double incremental = total_incremental_maintenance(graph_, m, {0.01});
  EXPECT_LT(incremental, recompute / 5);
}

TEST_F(IncrementalTest, LargeDeltasApproachRecomputeScale) {
  const MvppEvaluator eval(graph_);
  const MaterializedSet m{id("tmp4")};
  const double recompute = eval.total_maintenance_cost(m);
  const double full_delta = total_incremental_maintenance(graph_, m, {1.0});
  // At 100% churn the delta probe costs at least as much as one
  // recompute pass (it degenerates to re-joining everything, paying the
  // per-base probes).
  EXPECT_GE(full_delta, recompute * 0.5);
}

TEST_F(IncrementalTest, SumsOverBases) {
  const IncrementalOptions options{0.02};
  const double total = incremental_maintenance_cost(graph_, id("tmp4"), options);
  double manual = 0;
  for (NodeId b : graph_.bases_under(id("tmp4"))) {
    manual += graph_.node(b).frequency *
              incremental_delta_cost(graph_, id("tmp4"), b, options);
  }
  EXPECT_DOUBLE_EQ(total, manual);
}

TEST_F(IncrementalTest, AggregateViewPaysGroupedApply) {
  // An aggregate view follows the grouped-apply rule: scan the child
  // delta, read the stored groups, and write the view's own delta — a
  // nonzero estimate, for the view and the query root above it.
  const Optimizer optimizer(model_);
  const QuerySpec q = parse_and_bind(
      catalog_, "A", 1.0,
      "SELECT city, COUNT(*) AS n FROM Customer GROUP BY city");
  const MvppGraph g = MvppBuilder(optimizer).build({q}, {0}).graph;
  NodeId agg = -1;
  for (const MvppNode& n : g.nodes()) {
    if (n.kind == MvppNodeKind::kAggregate) agg = n.id;
  }
  ASSERT_GE(agg, 0);
  // Customer -> project(city) -> aggregate.
  const NodeId proj = g.node(agg).children[0];
  ASSERT_EQ(g.node(proj).kind, MvppNodeKind::kProject);
  const NodeId customer = g.node(proj).children[0];
  ASSERT_EQ(g.node(customer).kind, MvppNodeKind::kBase);

  const double f = 0.05;
  const double base_blocks = g.node(customer).blocks;
  const double proj_blocks = g.node(proj).blocks;
  const double agg_blocks = g.node(agg).blocks;
  // Project: scan the base delta; its delta shrinks with the projection.
  const double base_delta = f * base_blocks;
  const double proj_delta = base_delta * proj_blocks / base_blocks;
  const double proj_cost = base_delta;
  // Aggregate: read the child delta and the stored groups.
  const double agg_delta = proj_delta * agg_blocks / proj_blocks;
  const double agg_cost = proj_cost + proj_delta + agg_blocks;
  const double estimate = incremental_delta_cost(g, agg, customer, {f});
  EXPECT_GT(estimate, 0.0);
  EXPECT_DOUBLE_EQ(estimate, agg_cost + agg_delta);
  // The query root above the view inherits the same delta.
  EXPECT_DOUBLE_EQ(incremental_delta_cost(g, g.find_by_name("A"), customer,
                                          {f}),
                   estimate);
}

class UpdateStreamTest : public ::testing::Test {
 protected:
  UpdateStreamTest() : db_(populate_paper_database(0.01, 3)) {}
  Database db_;
};

TEST_F(UpdateStreamTest, TouchesRequestedFractions) {
  Rng rng(1);
  const std::size_t before = db_.table("Order").row_count();
  UpdateStreamOptions options;
  options.modify_fraction = 0.10;
  options.insert_fraction = 0.10;
  options.delete_fraction = 0.05;
  const std::size_t touched = apply_update_batch(db_, "Order", options, rng);
  EXPECT_GT(touched, 0u);
  const std::size_t after = db_.table("Order").row_count();
  // Inserts minus deletes: about +5%.
  EXPECT_NEAR(static_cast<double>(after),
              static_cast<double>(before) * 1.05,
              static_cast<double>(before) * 0.03);
}

TEST_F(UpdateStreamTest, SchemaPreserved) {
  Rng rng(2);
  const Schema before = db_.table("Customer").schema();
  apply_update_batch(db_, "Customer", {0.1, 0.1, 0.1}, rng);
  EXPECT_EQ(db_.table("Customer").schema(), before);
}

TEST_F(UpdateStreamTest, EmptyTableIsNoop) {
  Database db;
  db.add_table("E", Table(Schema({{"x", ValueType::kInt64, ""}})));
  Rng rng(3);
  EXPECT_EQ(apply_update_batch(db, "E", {}, rng), 0u);
}

TEST_F(UpdateStreamTest, DeterministicInRng) {
  Database a = populate_paper_database(0.01, 3);
  Database b = populate_paper_database(0.01, 3);
  Rng ra(9), rb(9);
  apply_update_batch(a, "Order", {0.05, 0.05, 0.02}, ra);
  apply_update_batch(b, "Order", {0.05, 0.05, 0.02}, rb);
  EXPECT_TRUE(same_bag(a.table("Order"), b.table("Order")));
}

TEST_F(UpdateStreamTest, DeltaCaptureIsDeterministicInRng) {
  // Capturing the delta must not consume extra randomness: two runs from
  // the same seed — one capturing, one not — produce the same table, and
  // the captured sides are themselves reproducible.
  Database a = populate_paper_database(0.01, 3);
  Database b = populate_paper_database(0.01, 3);
  Rng ra(9), rb(9);
  DeltaSet da, db2;
  apply_update_batch(a, "Order", {0.05, 0.05, 0.02}, ra, &da);
  apply_update_batch(b, "Order", {0.05, 0.05, 0.02}, rb, &db2);
  EXPECT_TRUE(same_bag(a.table("Order"), b.table("Order")));
  EXPECT_TRUE(same_bag(da.at("Order").inserts(), db2.at("Order").inserts()));
  EXPECT_TRUE(same_bag(da.at("Order").deletes(), db2.at("Order").deletes()));
  Database c = populate_paper_database(0.01, 3);
  Rng rc(9);
  apply_update_batch(c, "Order", {0.05, 0.05, 0.02}, rc);  // no capture
  EXPECT_TRUE(same_bag(a.table("Order"), c.table("Order")));
}

// An ingest derives the next version of the relation from the old one by
// sharing handles: every row it keeps is the old version's own row object,
// every other row is one of the captured delta's inserts (shared with it),
// and the old version, still held by a copy, is unchanged.
TEST_F(UpdateStreamTest, IngestSharesEveryRowItKeeps) {
  const Database old = db_;
  const Table& before = old.table("Order");
  const std::vector<Tuple> rows(before.rows().begin(), before.rows().end());
  std::set<const Tuple*> kept;
  for (const Tuple& t : before.rows()) kept.insert(&t);
  Rng rng(23);
  DeltaSet batch;
  apply_update_batch(db_, "Order", {0.02, 0.02, 0.02}, rng, &batch);

  const Table& after = db_.table("Order");
  const DeltaTable& captured = batch.at("Order");
  std::set<const Tuple*> added;
  for (const Tuple& t : captured.inserts().rows()) added.insert(&t);
  std::size_t shared = 0;
  for (const Tuple& t : after.rows()) {
    if (kept.contains(&t)) {
      ++shared;
    } else {
      EXPECT_TRUE(added.contains(&t));
    }
  }
  EXPECT_GT(captured.deletes().row_count(), 0u);
  EXPECT_EQ(shared + captured.inserts().row_count(), after.row_count());
  EXPECT_EQ(std::vector<Tuple>(before.rows().begin(), before.rows().end()),
            rows);
}

TEST_F(UpdateStreamTest, CapturedDeltaEqualsNewMinusOld) {
  const Table before = db_.table("Order");
  Rng rng(17);
  DeltaSet batch;
  apply_update_batch(db_, "Order", {0.08, 0.04, 0.03}, rng, &batch);
  const DeltaTable truth = DeltaTable::diff(before, db_.table("Order"));
  const DeltaTable captured = batch.at("Order").compacted();
  EXPECT_TRUE(same_bag(truth.inserts(), captured.inserts()));
  EXPECT_TRUE(same_bag(truth.deletes(), captured.deletes()));
  // And applying the compacted capture to the old state replays the batch
  // exactly. (The raw capture can delete an intermediate state — a row
  // modified twice in one batch — which only compaction cancels.)
  Table replay = before;
  apply_delta(replay, captured);
  EXPECT_TRUE(same_bag(replay, db_.table("Order")));
}

TEST_F(UpdateStreamTest, DeltaAccumulatesAcrossBatches) {
  const Table before = db_.table("Order");
  Rng rng(21);
  DeltaSet batch;
  apply_update_batch(db_, "Order", {0.03, 0.03, 0.01}, rng, &batch);
  apply_update_batch(db_, "Order", {0.03, 0.03, 0.01}, rng, &batch);
  Table replay = before;
  apply_delta(replay, batch.at("Order").compacted());
  EXPECT_TRUE(same_bag(replay, db_.table("Order")));
}

TEST_F(UpdateStreamTest, ZeroRoundingFractionsAreNoops) {
  // Fractions so small that every count rounds to zero: nothing changes
  // and the captured delta (entry created eagerly) stays empty.
  const Table before = db_.table("Division");
  const std::size_t n = before.row_count();
  ASSERT_GT(n, 0u);
  const double tiny = 0.4 / static_cast<double>(n);  // llround → 0
  Rng rng(5);
  DeltaSet batch;
  EXPECT_EQ(apply_update_batch(db_, "Division", {tiny, tiny, tiny}, rng,
                               &batch),
            0u);
  EXPECT_TRUE(same_bag(before, db_.table("Division")));
  EXPECT_TRUE(batch.at("Division").empty());
}

TEST_F(UpdateStreamTest, DeleteEverythingKeepsAtLeastOneRow) {
  // delete_fraction 1.0 is capped at n−1 so the relation never empties
  // (an empty base would make later batches silent no-ops).
  UpdateStreamOptions options;
  options.modify_fraction = 0;
  options.insert_fraction = 0;
  options.delete_fraction = 1.0;
  const Table before = db_.table("Customer");
  Rng rng(7);
  DeltaSet batch;
  apply_update_batch(db_, "Customer", options, rng, &batch);
  EXPECT_GE(db_.table("Customer").row_count(), 1u);
  EXPECT_LT(db_.table("Customer").row_count(), before.row_count());
  EXPECT_EQ(batch.at("Customer").inserts().row_count(), 0u);
  Table replay = before;
  apply_delta(replay, batch.at("Customer"));
  EXPECT_TRUE(same_bag(replay, db_.table("Customer")));
}

TEST_F(UpdateStreamTest, EmptyRelationCapturesNothing) {
  Database db;
  db.add_table("E", Table(Schema({{"x", ValueType::kInt64, ""}})));
  Rng rng(3);
  DeltaSet batch;
  EXPECT_EQ(apply_update_batch(db, "E", {0.5, 0.5, 0.5}, rng, &batch), 0u);
  // Early-out happens before the delta entry is created.
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace mvd
