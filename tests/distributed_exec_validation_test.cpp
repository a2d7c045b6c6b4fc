// §4.1 transfer validation: the DistributedMvppEvaluator's *predicted*
// cross-site transfer blocks must track the *measured* exchange traffic
// of the in-process sharded engine running the same plans over the same
// data.
//
// Correspondence: the model is given a two-site topology — every base
// relation at "store", every query issued at "warehouse" — so the
// predicted answer transfer of a query over an empty materialized set is
// the estimated result (or partial-aggregate) volume shipped to the
// consumer. The engine's analogue is the gather stage: per-bucket results
// / aggregate partials collected onto the coordinator, counted in
// ExecStats::blocks_exchanged. Prediction uses estimated cardinalities
// and whole-result blocks; measurement uses actual cardinalities and
// per-bucket block rounding (up to +1 block per non-empty bucket), so the
// two agree within a stated factor, not exactly. Stated factor: 3.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/distributed/distributed_evaluator.hpp"
#include "src/exec/sharded.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

/// Predicted-vs-measured agreement factor. Covers estimation error of the
/// cost model's cardinalities plus the per-bucket ceil() of the engine's
/// gather accounting; it is NOT a tunable tolerance — tightening it is a
/// model improvement, loosening it is a regression.
constexpr double kStatedFactor = 3.0;

class TransferValidationTest : public ::testing::Test {
 protected:
  TransferValidationTest() {
    StarSchemaOptions schema;
    schema.dimensions = 2;
    schema.fact_rows = 20'000;
    schema.dimension_rows = 1'000;
    db_ = populate_star_database(schema, 7);
    catalog_ = catalog_from_database(db_, 10.0);

    designer_ = std::make_unique<WarehouseDesigner>(catalog_);
    // Hand-written queries whose transfer shape is controlled: a grouped
    // rollup on the partition key, a fact-dimension join, and a fact
    // selection — all rooted on the partitioned fact table.
    designer_->add_query("Q1", 5.0,
                         "SELECT Fact.d0, SUM(Fact.measure) FROM Fact "
                         "GROUP BY Fact.d0");
    designer_->add_query("Q2", 1.0,
                         "SELECT Dim0.category, Fact.measure FROM Fact, Dim0 "
                         "WHERE Fact.d0 = Dim0.id");
    designer_->add_query("Q3", 2.0,
                         "SELECT Fact.d0, Fact.measure FROM Fact "
                         "WHERE Fact.measure > 500");
    design_ = designer_->design();

    SiteTopology topo({"warehouse", "store"});
    for (const char* r : {"Fact", "Dim0", "Dim1"}) {
      topo.place_relation(r, "store");
    }
    for (const char* q : {"Q1", "Q2", "Q3"}) {
      topo.place_query(q, "warehouse");
    }
    dist_ = std::make_unique<DistributedMvppEvaluator>(design_.graph(),
                                                       std::move(topo));
  }

  Database db_;
  Catalog catalog_{10.0};
  std::unique_ptr<WarehouseDesigner> designer_;
  DesignResult design_;
  std::unique_ptr<DistributedMvppEvaluator> dist_;
};

TEST_F(TransferValidationTest, LoadExchangeMatchesStorageVolumes) {
  // The load-time exchange is exact, not estimated: partitioning shuffles
  // every fact row once, replication broadcasts each dimension to every
  // shard.
  const std::size_t shards = 4;
  Database sdb = shard_database(db_, shards, {{"Fact", "d0"}});
  const ExchangeCounters& log = sdb.exchange_log();
  EXPECT_DOUBLE_EQ(log.shuffle_rows,
                   static_cast<double>(db_.table("Fact").row_count()));
  const double dim_rows =
      static_cast<double>(db_.table("Dim0").row_count()) +
      static_cast<double>(db_.table("Dim1").row_count());
  EXPECT_DOUBLE_EQ(log.broadcast_rows, dim_rows * shards);
  const double dim_blocks =
      db_.table("Dim0").blocks() + db_.table("Dim1").blocks();
  EXPECT_DOUBLE_EQ(log.broadcast_blocks, dim_blocks * shards);
}

// The factor comparison runs on the paper's running example at scale 1,
// where the populated data is constructed so executed selectivities match
// the catalog statistics (§2 / Table 1) — prediction error then reflects
// the transfer model, not cardinality estimation. Order and Customer live
// at "store" (Order hash-partitioned on Cid in the engine, Customer
// replicated at load); Product / Division / Part and all query consumers
// live at "warehouse".
TEST(PaperTransferValidationTest, PredictedTransferTracksMeasuredGather) {
  const Catalog catalog = make_paper_catalog();
  const CostModel model(catalog, paper_cost_config());
  const MvppGraph g = build_figure3_mvpp(model);

  SiteTopology topo({"warehouse", "store"});
  topo.place_relation("Order", "store");
  topo.place_relation("Customer", "store");
  for (const char* r : {"Product", "Division", "Part"}) {
    topo.place_relation(r, "warehouse");
  }
  for (const char* q : {"Q1", "Q2", "Q3", "Q4"}) {
    topo.place_query(q, "warehouse");
  }
  const DistributedMvppEvaluator dist(g, std::move(topo));

  const Database db = populate_paper_database(1.0, 17);
  Database sdb = shard_database(db, 4, {{"Order", "Cid"}});
  const ShardedExecutor exec(sdb);
  const MaterializedSet none;

  // Q1 and Q2 never touch the store site: the model predicts zero
  // transfer and the engine routes them to the coordinator replicas
  // without any exchange.
  for (const std::string name : {"Q1", "Q2"}) {
    const NodeId q = g.find_by_name(name);
    ASSERT_GE(q, 0) << name;
    EXPECT_DOUBLE_EQ(dist.answer_transfer_blocks(q, none), 0.0) << name;
    ExecStats stats;
    exec.run(answer_plan(g, q, none), &stats);
    EXPECT_DOUBLE_EQ(stats.blocks_exchanged, 0.0) << name;
  }

  // Q3 and Q4 read the partitioned Order spine. The model's predicted
  // answer transfer splits into two components with distinct engine
  // counterparts:
  //
  //   result ship    produce_transfer excluded — the result volume shipped
  //                  to the consumer site. Engine counterpart: the gather
  //                  of per-bucket results onto the coordinator, measured
  //                  per run. Compared within the stated factor, after
  //                  normalizing the gathered rows to the model's
  //                  width-aware blocks (the engine packs a fixed 10
  //                  rows/block; the model packs by tuple width).
  //
  //   input ship     produce_transfer — warehouse-side join inputs (tmp2)
  //                  shipped to the store site per execution. The engine
  //                  pays this ONCE at load by replicating the warehouse
  //                  relations to every shard, so per-run exchange shows
  //                  none of it; the load-time broadcast per shard must
  //                  upper-bound it.
  const double per_shard_replicated =
      sdb.exchange_log().broadcast_blocks / static_cast<double>(sdb.shards());
  for (const std::string name : {"Q3", "Q4"}) {
    const NodeId q = g.find_by_name(name);
    const NodeId r = g.find_by_name(name == "Q3" ? "result3" : "result4");
    ASSERT_GE(q, 0) << name;
    ASSERT_GE(r, 0) << name;
    const double input_ship = dist.produce_transfer_blocks(r, none);
    const double result_ship = dist.answer_transfer_blocks(q, none) - input_ship;

    ExecStats stats;
    const Table result = exec.run(answer_plan(g, q, none), &stats);
    const double rows_per_model_block = g.node(r).rows / g.node(r).blocks;
    const double measured_ship = stats.rows_exchanged / rows_per_model_block;

    EXPECT_GT(result.row_count(), 0u) << name;
    ASSERT_GT(result_ship, 0.0) << name;
    ASSERT_GT(measured_ship, 0.0) << name;
    const double ratio = result_ship > measured_ship
                             ? result_ship / measured_ship
                             : measured_ship / result_ship;
    EXPECT_LE(ratio, kStatedFactor)
        << name << ": predicted result ship " << result_ship
        << " blocks, measured gather " << measured_ship << " model blocks ("
        << stats.rows_exchanged << " rows)";
    EXPECT_LE(input_ship, per_shard_replicated) << name;
  }
}

TEST_F(TransferValidationTest, MeasuredGatherIsShardCountInvariant) {
  // The gather is per *bucket*, and buckets are fixed: the measured
  // exchange volume of a run must not depend on the shard count.
  const MvppGraph& g = design_.graph();
  const MaterializedSet none;
  for (const std::string name : {"Q1", "Q2", "Q3"}) {
    const NodeId q = g.find_by_name(name);
    std::vector<double> volumes;
    for (const std::size_t shards : {1u, 4u, 8u}) {
      Database sdb = shard_database(db_, shards, {{"Fact", "d0"}});
      ExecStats stats;
      ShardedExecutor(sdb).run(answer_plan(g, q, none), &stats);
      volumes.push_back(stats.blocks_exchanged);
    }
    EXPECT_DOUBLE_EQ(volumes[0], volumes[1]) << name;
    EXPECT_DOUBLE_EQ(volumes[0], volumes[2]) << name;
  }
}

}  // namespace
}  // namespace mvd
