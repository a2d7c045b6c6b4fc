// Hash partitioning as a Database layout and the sharded executor over
// it: bucket hashing matches Value equality, partitioning covers and
// preserves rows in bucket order, base deltas land in their owning
// buckets, every runtime step keeps partitioned entries in bucket order,
// and the partitioned warehouse (deploy / sharded answers / incremental
// refresh, copies included) stays a bag-equivalent of the single-site
// one while its per-shard counters reconcile with the recorded totals
// (the distributed/shard-stats-consistent contract).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/expr.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/common/strings.hpp"
#include "src/exec/sharded.hpp"
#include "src/lint/lint.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/serve/server.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"

namespace mvd {
namespace {

/// Every partitioned entry of `db` must be stored in bucket order, with
/// bucket offsets that tile the table and match bucket_of of its key.
void expect_bucket_order(const Database& db, const std::string& step) {
  for (const std::string& name : db.partitioned_names()) {
    const Table& t = db.table(name);
    const std::size_t k = t.schema().index_of(*db.partition_key(name));
    std::size_t covered = 0;
    std::size_t misplaced = 0;
    for (std::size_t b = 0; b < Database::kBuckets; ++b) {
      const auto [lo, hi] = db.bucket_rows(name, b);
      EXPECT_EQ(lo, covered) << step << ": " << name << " bucket " << b;
      for (std::size_t i = lo; i < hi; ++i) {
        if (Database::bucket_of(t.row(i)[k]) != b) ++misplaced;
      }
      covered = hi;
    }
    EXPECT_EQ(covered, t.row_count()) << step << ": " << name;
    EXPECT_EQ(misplaced, 0u) << step << ": " << name;
  }
}

TEST(ShardedTableTest, BucketHashMatchesValueEquality) {
  // Int64 5, double 5.0 and date 5 compare equal as Values, so they must
  // land in the same bucket (they can meet as join or group keys).
  EXPECT_EQ(Database::bucket_of(Value::int64(5)),
            Database::bucket_of(Value::real(5.0)));
  EXPECT_EQ(Database::bucket_of(Value::int64(5)),
            Database::bucket_of(Value::date(5)));
  // Signed zeros compare equal and must hash together.
  EXPECT_EQ(Database::bucket_of(Value::real(0.0)),
            Database::bucket_of(Value::real(-0.0)));
  for (std::int64_t k = 0; k < 200; ++k) {
    EXPECT_LT(Database::bucket_of(Value::int64(k)), Database::kBuckets);
  }
}

TEST(ShardedTableTest, PartitionCoversAndPreservesRows) {
  Table t(Schema({{"k", ValueType::kInt64, "T"},
                  {"v", ValueType::kString, "T"}}),
          10.0);
  for (int i = 0; i < 500; ++i) {
    t.append({Value::int64(i % 37), Value::string(str_cat("r", i))});
  }
  Database db;
  db.add_table("T", t);
  db.partition("T", "k");
  ASSERT_TRUE(db.is_partitioned("T"));
  EXPECT_EQ(*db.partition_key("T"), "k");
  const Table& stored = db.table("T");
  EXPECT_TRUE(same_bag(t, stored));
  expect_bucket_order(db, "partition");

  // Source order survives within each bucket (the row tags ascend).
  std::size_t non_empty = 0;
  for (std::size_t b = 0; b < Database::kBuckets; ++b) {
    const auto [lo, hi] = db.bucket_rows("T", b);
    if (hi > lo) ++non_empty;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      EXPECT_LT(std::stoi(stored.row(i - 1)[1].as_string().substr(1)),
                std::stoi(stored.row(i)[1].as_string().substr(1)));
    }
  }
  EXPECT_GT(non_empty, 1u);  // 37 keys spread over more than one bucket
  EXPECT_THROW(db.partition("T", "absent"), BindError);
}

TEST(ShardedDatabaseTest, BucketRangesPartitionTheBucketSpace) {
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 5u, 8u, 64u}) {
    Database db;
    db.set_shards(shards);
    std::size_t covered = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto [b0, b1] = db.bucket_range(s);
      EXPECT_LE(b0, b1);
      for (std::size_t b = b0; b < b1; ++b) {
        EXPECT_EQ(db.shard_of_bucket(b), s);
        ++covered;
      }
    }
    EXPECT_EQ(covered, Database::kBuckets) << shards << " shards";
  }
  Database db;
  EXPECT_THROW(db.set_shards(0), ExecError);
  EXPECT_THROW(db.set_shards(Database::kBuckets + 1), ExecError);
}

TEST(ShardedDatabaseTest, DeltasRouteToOwningBuckets) {
  StarSchemaOptions schema;
  schema.dimensions = 2;
  schema.fact_rows = 1'000;
  schema.dimension_rows = 50;
  Database db = populate_star_database(schema, 3);
  Database sdb = shard_database(db, 4, {{"Fact", "d0"}});
  EXPECT_TRUE(sdb.is_partitioned("Fact"));
  EXPECT_FALSE(sdb.is_partitioned("Dim0"));
  EXPECT_TRUE(same_bag(db.table("Fact"), sdb.table("Fact")));
  // Loading counted one shuffle of every fact row and a dimension
  // broadcast of rows x shards.
  EXPECT_EQ(sdb.exchange_log().shuffle_rows,
            static_cast<double>(db.table("Fact").row_count()));
  EXPECT_GT(sdb.exchange_log().broadcast_rows, 0.0);

  // The delta's rows shuffle to the buckets of their keys (counted once
  // each), and the stored table stays a bucket-ordered image of the
  // updated single-site table.
  DeltaSet deltas;
  Rng rng(7);
  apply_update_batch(db, "Fact", UpdateStreamOptions{}, rng, &deltas);
  const double shuffled = sdb.exchange_log().shuffle_rows;
  apply_base_deltas(sdb, deltas);
  EXPECT_EQ(sdb.exchange_log().shuffle_rows - shuffled,
            static_cast<double>(deltas.at("Fact").row_count()));
  EXPECT_TRUE(same_bag(db.table("Fact"), sdb.table("Fact")));
  expect_bucket_order(sdb, "apply_base_deltas");
}

/// Designer + star workload fixture shared by the runtime differentials:
/// one single-site warehouse and one 4-shard warehouse deployed from the
/// same design over the same data.
class ShardedRuntimeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 4;

  ShardedRuntimeTest() {
    StarSchemaOptions schema;
    schema.dimensions = 3;
    schema.fact_rows = 2'000;
    schema.dimension_rows = 150;
    db_ = populate_star_database(schema, 29);
    const Catalog catalog = catalog_from_database(db_, 10.0);

    StarQueryOptions queries;
    queries.count = 6;
    queries.max_dimensions = 3;
    queries.aggregation_probability = 0.5;
    queries.seed = 41;
    designer_ = std::make_unique<WarehouseDesigner>(catalog);
    for (QuerySpec& q : generate_star_queries(catalog, schema, queries)) {
      names_.push_back(q.name());
      designer_->add_query(std::move(q));
    }
    design_ = designer_->design();

    sdb_ = shard_database(db_, kShards, {{"Fact", "d0"}});
    designer_->deploy(design_, db_, &flat_stats_);
    designer_->deploy(design_, sdb_, &sharded_stats_);
  }

  /// A registered query answered on the partitioned warehouse through
  /// the sharded executor.
  Table sharded_answer(const std::string& query) {
    const MvppGraph& g = design_.graph();
    return ShardedExecutor(sdb_).run(answer_plan(
        g, g.find_by_name(query), design_.selection.materialized));
  }

  Database db_;
  std::unique_ptr<WarehouseDesigner> designer_;
  DesignResult design_;
  std::vector<std::string> names_;
  Database sdb_;
  ExecStats flat_stats_, sharded_stats_;
};

TEST_F(ShardedRuntimeTest, DeployStoresBagEquivalentViews) {
  const MvppGraph& g = design_.graph();
  ASSERT_FALSE(design_.selection.materialized.empty());
  for (NodeId v : design_.selection.materialized) {
    const std::string& name = g.node(v).name;
    EXPECT_TRUE(same_bag(db_.table(name), sdb_.table(name))) << name;
    EXPECT_EQ(flat_stats_.rows_out.at(name), sharded_stats_.rows_out.at(name))
        << name;
  }
  // Views that kept the fact's key are stored co-partitioned with it.
  EXPECT_GT(sdb_.partitioned_names().size(), 1u);
  expect_bucket_order(sdb_, "deploy");
}

TEST_F(ShardedRuntimeTest, AnswersMatchSingleSiteAnswers) {
  for (const std::string& name : names_) {
    const Table flat = designer_->answer(design_, name, db_);
    EXPECT_TRUE(same_bag(flat, sharded_answer(name))) << name;
    EXPECT_TRUE(same_bag(flat, designer_->answer(design_, name, sdb_)))
        << name;
  }
}

TEST_F(ShardedRuntimeTest, ShardStatsReconcileAndLintRuleAgrees) {
  // Per-shard stored rows of every partitioned view must sum to the
  // recorded total — first directly, then through mvlint rule 22.
  const std::vector<std::string> partitioned = sdb_.partitioned_names();
  for (const std::string& name : partitioned) {
    if (sharded_stats_.rows_out.find(name) == sharded_stats_.rows_out.end()) {
      continue;  // base fact table, not a deployed view
    }
    ASSERT_EQ(sharded_stats_.per_shard.size(), kShards);
    double sum = 0;
    for (const ExecStats& s : sharded_stats_.per_shard) {
      const auto it = s.rows_out.find(name);
      if (it != s.rows_out.end()) sum += it->second;
    }
    EXPECT_EQ(sum, sharded_stats_.rows_out.at(name)) << name;
  }

  LintContext ctx;
  ctx.graph = &design_.graph();
  ctx.exec_stats = &sharded_stats_;
  LintContext::SelectionCheck check;
  check.result = &design_.selection;
  ctx.selections.push_back(check);
  const LintReport clean = LintRegistry::builtin().run(ctx);
  EXPECT_FALSE(
      clean.fired_rules().contains("distributed/shard-stats-consistent"))
      << clean.render_text();

  // Corrupt one shard's slice count for a deployed partitioned view: the
  // rule must notice. (Skipped when the design stored no partitioned
  // view — the selection then exercises only the coordinator path.)
  ExecStats corrupted = sharded_stats_;
  bool found = false;
  for (const std::string& name : partitioned) {
    if (corrupted.rows_out.find(name) == corrupted.rows_out.end()) continue;
    if (corrupted.per_shard.empty()) break;
    corrupted.per_shard[0].rows_out[name] += 1;
    found = true;
    break;
  }
  if (found) {
    ctx.exec_stats = &corrupted;
    const LintReport dirty = LintRegistry::builtin().run(ctx);
    EXPECT_TRUE(
        dirty.fired_rules().contains("distributed/shard-stats-consistent"))
        << dirty.render_text();
  }
}

TEST_F(ShardedRuntimeTest, IncrementalRefreshMatchesSingleSite) {
  DeltaSet deltas;
  Rng rng(99);
  for (const char* relation : {"Fact", "Dim0"}) {
    apply_update_batch(db_, relation, UpdateStreamOptions{}, rng, &deltas);
  }
  apply_base_deltas(sdb_, deltas);

  const RefreshReport flat =
      designer_->refresh(design_, db_, deltas, RefreshMode::kIncremental);
  ExecStats refresh_stats;
  const RefreshReport sharded = designer_->refresh(
      design_, sdb_, deltas, RefreshMode::kIncremental, &refresh_stats);
  ASSERT_EQ(flat.views.size(), sharded.views.size());
  expect_bucket_order(sdb_, "incremental refresh");

  const MvppGraph& g = design_.graph();
  for (NodeId v : design_.selection.materialized) {
    const std::string& name = g.node(v).name;
    EXPECT_TRUE(same_bag(db_.table(name), sdb_.table(name))) << name;
  }
  // Answers over the refreshed warehouses still agree.
  for (const std::string& name : names_) {
    EXPECT_TRUE(same_bag(designer_->answer(design_, name, db_),
                         sharded_answer(name)))
        << name;
  }
}

TEST_F(ShardedRuntimeTest, RecomputeRefreshMatchesSingleSite) {
  DeltaSet deltas;
  Rng rng(17);
  apply_update_batch(db_, "Fact", UpdateStreamOptions{}, rng, &deltas);
  apply_base_deltas(sdb_, deltas);

  (void)designer_->refresh(design_, db_, deltas, RefreshMode::kRecompute);
  const RefreshReport report =
      designer_->refresh(design_, sdb_, deltas, RefreshMode::kRecompute);
  EXPECT_EQ(report.count(RefreshPath::kRecomputed), report.views.size());
  expect_bucket_order(sdb_, "recompute refresh");

  const MvppGraph& g = design_.graph();
  for (NodeId v : design_.selection.materialized) {
    const std::string& name = g.node(v).name;
    EXPECT_TRUE(same_bag(db_.table(name), sdb_.table(name))) << name;
  }
}

TEST(ShardedExecutorTest, RejectsTwoPartitionedLeafPaths) {
  StarSchemaOptions schema;
  schema.dimensions = 1;
  schema.fact_rows = 300;
  schema.dimension_rows = 30;
  const Database db = populate_star_database(schema, 5);
  const Catalog catalog = catalog_from_database(db, 10.0);
  Database sdb = shard_database(db, 2, {{"Fact", "d0"}});

  // A fact self-join would need cross-shard repartitioning. Project
  // disjoint columns so the join output schema stays well-formed.
  const PlanPtr scan = make_scan(catalog, "Fact");
  const PlanPtr self_join =
      make_join(make_project(scan, {"Fact.d0"}),
                make_project(scan, {"Fact.measure"}),
                lit(Value::boolean(true)));
  EXPECT_EQ(analyze_shard_plan(self_join, sdb).refs, 2u);
  EXPECT_THROW(ShardedExecutor(sdb).run(self_join), ExecError);
}

/// A 2-dimension star partitioned on Fact.d0 over four shards, with a
/// design whose Fact-Dim0 join view keeps the key — so it is stored
/// partitioned — under a rollup stored once.
class PartitionedWarehouseTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 4;

  PartitionedWarehouseTest() {
    StarSchemaOptions schema;
    schema.dimensions = 2;
    schema.fact_rows = 2'000;
    schema.dimension_rows = 150;
    db_ = populate_star_database(schema, 29);
    catalog_ = catalog_from_database(db_, 10.0);
    designer_ = std::make_unique<WarehouseDesigner>(catalog_);
    designer_->add_query(
        "Detail", 5.0,
        "SELECT Fact.d0, Dim0.category, Fact.measure FROM Fact, Dim0 "
        "WHERE Fact.d0 = Dim0.id AND Fact.measure > 300");
    designer_->add_query(
        "Rollup", 2.0,
        "SELECT Dim0.category, SUM(Fact.measure), COUNT(*) FROM Fact, Dim0 "
        "WHERE Fact.d0 = Dim0.id GROUP BY Dim0.category");
    design_ = designer_->design();
    sdb_ = shard_database(db_, kShards, {{"Fact", "d0"}});
  }

  /// One update round on Dim0 and then Fact, applied to the single-site
  /// warehouse; returns its captured deltas.
  DeltaSet update_round(const UpdateStreamOptions& options,
                        std::uint64_t seed) {
    DeltaSet deltas;
    Rng rng(seed);
    for (const char* relation : {"Dim0", "Fact"}) {
      apply_update_batch(db_, relation, options, rng, &deltas);
    }
    return deltas;
  }

  void expect_views_match(const Database& partitioned) {
    const MvppGraph& g = design_.graph();
    for (NodeId v : design_.selection.materialized) {
      const std::string& name = g.node(v).name;
      EXPECT_TRUE(same_bag(db_.table(name), partitioned.table(name))) << name;
    }
  }

  Database db_;
  Catalog catalog_{10.0};
  std::unique_ptr<WarehouseDesigner> designer_;
  DesignResult design_;
  Database sdb_;
};

// A copy of a deployed partitioned warehouse is a warehouse of its own:
// a heavy update round refreshed incrementally on the copy must land on
// the single-site state, and the original must not see the round.
TEST_F(PartitionedWarehouseTest, CopyRefreshesLikeTheOriginal) {
  designer_->deploy(design_, db_);
  designer_->deploy(design_, sdb_);
  ASSERT_GT(sdb_.partitioned_names().size(), 1u) << "no partitioned view";
  const Table fact_before = sdb_.table("Fact");

  Database copy = sdb_;
  const DeltaSet deltas = update_round({0.3, 0.3, 0.3}, 29);
  apply_base_deltas(copy, deltas);
  designer_->refresh(design_, db_, deltas, RefreshMode::kIncremental);
  designer_->refresh(design_, copy, deltas, RefreshMode::kIncremental);
  expect_views_match(copy);
  expect_bucket_order(copy, "refreshed copy");
  EXPECT_TRUE(same_bag(sdb_.table("Fact"), fact_before));
}

// Every step that writes a partitioned warehouse — load, deploy, base
// deltas, incremental and recompute refresh, and mvserve's ingest and
// refresh on its snapshots — leaves each partitioned entry in bucket
// order with matching offsets.
TEST_F(PartitionedWarehouseTest, EveryStepKeepsBucketOrder) {
  expect_bucket_order(sdb_, "load");
  designer_->deploy(design_, db_);
  designer_->deploy(design_, sdb_);
  expect_bucket_order(sdb_, "deploy");
  const std::vector<std::string> partitioned = sdb_.partitioned_names();
  ASSERT_GT(partitioned.size(), 1u) << "no partitioned view";

  DeltaSet deltas = update_round({0.05, 0.05, 0.05}, 3);
  apply_base_deltas(sdb_, deltas);
  expect_bucket_order(sdb_, "apply_base_deltas");
  designer_->refresh(design_, db_, deltas, RefreshMode::kIncremental);
  designer_->refresh(design_, sdb_, deltas, RefreshMode::kIncremental);
  expect_bucket_order(sdb_, "incremental refresh");
  expect_views_match(sdb_);

  deltas = update_round({0.05, 0.05, 0.05}, 4);
  apply_base_deltas(sdb_, deltas);
  designer_->refresh(design_, db_, deltas, RefreshMode::kRecompute);
  designer_->refresh(design_, sdb_, deltas, RefreshMode::kRecompute);
  expect_bucket_order(sdb_, "recompute refresh");
  expect_views_match(sdb_);

  // mvserve's snapshots carry the layout through ingest and refresh.
  MvServer server(catalog_, design_, sdb_);
  Rng rng(5);
  server.ingest("Fact", UpdateStreamOptions{0.05, 0.05, 0.05}, rng);
  expect_bucket_order(*server.snapshot()->db, "ingest");
  server.refresh(RefreshMode::kIncremental);
  expect_bucket_order(*server.snapshot()->db, "serve refresh");
  EXPECT_EQ(server.snapshot()->db->partitioned_names(), partitioned);
}

}  // namespace
}  // namespace mvd
