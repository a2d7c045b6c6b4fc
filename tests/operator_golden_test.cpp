// Operator golden: the row engine and the sharded executor on the
// partitioned star that the sharded differentials build (three
// dimensions, 2,000 fact rows, Fact hash-partitioned on d0). The plans are
// every declared query's base-table answer plan, two grouped aggregates
// over the fact's double column (SUM + AVG; COUNT + MIN + MAX) keyed by a
// dimension key other than the partition key, so every bucket's partial
// groups meet in the merge, a global aggregate whose input a filter
// empties, an aggregate under a projection (the sharded remainder path),
// a hash join that builds its left side and filters by a residual
// conjunct, and a routed point query. They run on the unsharded row Executor and on
// ShardedExecutor at 1, 4 and 8 shards on row, vec@1 and vec@4. Each run's
// rows (in order, with exact types and bits) and its ExecStats
// (blocks_read, rows_scanned, batches, rows_out with the partial(...)
// labels, rows/blocks_exchanged and every shard's rows_out) render to a
// canonical text whose 64-bit digest is pinned below. The digests were
// recorded while the row engine's hash join and hash aggregation, the
// sharded partial -> final merge and the delta joins each had their own
// copy of the hashing code, so sharing one copy must leave every row and
// counter exactly as it was.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/exec/sharded.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "tests/golden_digest.hpp"

namespace mvd {
namespace {

struct Config {
  const char* name;
  std::size_t shards;  // 0 = the unsharded row Executor
  ExecMode mode;
  std::size_t threads;
};
constexpr Config kConfigs[] = {
    {"row", 0, ExecMode::kRow, 1},
    {"1 shard row", 1, ExecMode::kRow, 1},
    {"1 shard vec@1", 1, ExecMode::kVectorized, 1},
    {"1 shard vec@4", 1, ExecMode::kVectorized, 4},
    {"4 shards row", 4, ExecMode::kRow, 1},
    {"4 shards vec@1", 4, ExecMode::kVectorized, 1},
    {"4 shards vec@4", 4, ExecMode::kVectorized, 4},
    {"8 shards row", 8, ExecMode::kRow, 1},
    {"8 shards vec@1", 8, ExecMode::kVectorized, 1},
    {"8 shards vec@4", 8, ExecMode::kVectorized, 4}};

std::string render_labels(const std::string& prefix,
                          const std::map<std::string, double>& rows_out) {
  std::string s;
  for (const auto& [label, rows] : rows_out) {
    s += prefix + label + "=" + num(rows) + "\n";
  }
  return s;
}

std::string render_run(const Table& out, const ExecStats& stats) {
  std::string s = "rows " + std::to_string(out.row_count()) + " " +
                  std::to_string(table_digest(out)) + "\n";
  s += "stats blocks_read=" + num(stats.blocks_read) +
       " rows_scanned=" + num(stats.rows_scanned) +
       " batches=" + num(stats.batches) +
       " rows_exchanged=" + num(stats.rows_exchanged) +
       " blocks_exchanged=" + num(stats.blocks_exchanged) + "\n";
  s += render_labels("rows_out ", stats.rows_out);
  for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
    s += render_labels("shard " + std::to_string(i) + " rows_out ",
                       stats.per_shard[i].rows_out);
  }
  return s;
}

class OperatorGoldenTest : public ::testing::Test {
 protected:
  OperatorGoldenTest() {
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
    WarehouseDesigner designer(catalog);
    std::vector<std::string> names;
    for (QuerySpec& q : generate_star_queries(catalog, schema, queries)) {
      names.push_back(q.name());
      designer.add_query(std::move(q));
    }
    design_ = designer.design();
    const MvppGraph& g = design_.graph();
    for (const std::string& name : names) {
      plans_.push_back(answer_plan(g, g.find_by_name(name), {}));
    }

    const PlanPtr fact = make_scan(catalog, "Fact");
    plans_.push_back(make_aggregate(fact, {"Fact.d1"},
                                    {AggSpec{AggFn::kSum, "Fact.amount", ""},
                                     AggSpec{AggFn::kAvg, "Fact.amount", ""}}));
    plans_.push_back(make_aggregate(fact, {"Fact.d1"},
                                    {AggSpec{AggFn::kCount, "", ""},
                                     AggSpec{AggFn::kMin, "Fact.amount", ""},
                                     AggSpec{AggFn::kMax, "Fact.amount", ""}}));
    plans_.push_back(make_aggregate(
        make_select(fact, gt(col("Fact.measure"), lit_i64(1'000'000))), {},
        {AggSpec{AggFn::kCount, "", ""}, AggSpec{AggFn::kSum, "Fact.amount", ""},
         AggSpec{AggFn::kMin, "Fact.amount", ""},
         AggSpec{AggFn::kMax, "Fact.fid", ""}}));
    plans_.push_back(make_project(
        make_aggregate(fact, {"Fact.d2"},
                       {AggSpec{AggFn::kCount, "", ""},
                        AggSpec{AggFn::kSum, "Fact.amount", ""}}),
        {"sum_amount", "Fact.d2"}));
    // Larger input on the right, so the hash join builds its left side,
    // plus a residual conjunct across the two sides.
    plans_.push_back(make_join(
        make_scan(catalog, "Dim1"), fact,
        conj({eq(col("Dim1.id"), col("Fact.d1")),
              lt(col("Dim1.weight"), col("Fact.measure"))})));
    plans_.push_back(make_select(fact, eq(col("Fact.d0"), lit_i64(7))));
  }

  /// One canonical text per plan under `config`.
  std::vector<std::string> run_texts(const Config& config) const {
    std::vector<std::string> texts;
    if (config.shards == 0) {
      const Executor exec(db_, config.mode, config.threads);
      for (const PlanPtr& plan : plans_) {
        ExecStats stats;
        const Table out = exec.run(plan, &stats);
        texts.push_back(render_run(out, stats));
      }
      return texts;
    }
    Database sdb = shard_database(db_, config.shards, {{"Fact", "d0"}});
    const ShardedExecutor exec(sdb, config.mode, config.threads);
    for (const PlanPtr& plan : plans_) {
      ExecStats stats;
      const Table out = exec.run(plan, &stats);
      texts.push_back(render_run(out, stats));
    }
    return texts;
  }

  Database db_;
  DesignResult design_;
  std::vector<PlanPtr> plans_;
};

TEST_F(OperatorGoldenTest, RowsAndStatsMatchTheRecording) {
  // The hand-built plans take the sharded paths they are here for: four
  // spine aggregates (the last under a projection), then a join without
  // one, then a routed point query.
  {
    Database sdb = shard_database(db_, 4, {{"Fact", "d0"}});
    const std::size_t n = plans_.size();
    ASSERT_EQ(n, 12u);
    for (std::size_t p = n - 6; p < n - 2; ++p) {
      EXPECT_NE(analyze_shard_plan(plans_[p], sdb).spine_aggregate, nullptr);
    }
    EXPECT_NE(analyze_shard_plan(plans_[n - 3], sdb).spine_aggregate,
              plans_[n - 3].get());
    EXPECT_EQ(analyze_shard_plan(plans_[n - 2], sdb).spine_aggregate, nullptr);
    EXPECT_TRUE(
        analyze_shard_plan(plans_[n - 1], sdb).route_bucket.has_value());
  }

  const std::vector<std::vector<std::uint64_t>> golden = {
      {0x4bdf1980e8ebf4caull, 0x6579f058168b59cfull, 0x467d5e94f182a3efull,
       0x1b0c1be596dae17aull, 0x439cddd0c3269509ull, 0x49f163a50c669e32ull,
       0x0e9acfc9e93ceaf6ull, 0xb086169893f9e053ull, 0x66224b8276148bf6ull,
       0x6325cd3d2c6cdf81ull, 0x394d05dfd1f7a1baull, 0x8f420f412fa2f60aull},
      {0x152188f18079ba4cull, 0x3e038a4489db7802ull, 0x57cc932b61b4d999ull,
       0x9d3ab2da2d872a86ull, 0x50a9325ff42f973dull, 0x566fdbac9b15c113ull,
       0x3c419be1b193f9b6ull, 0xe0fbc57e9d7ea13full, 0x59a9b15a3f7563f0ull,
       0xda29bfc74dce7579ull, 0x9f0e6b4a746553e5ull, 0x0b7f317aacec2999ull},
      {0xf077f88dfa271904ull, 0xf6e6f13240d59512ull, 0x02f3ad0dced4fe91ull,
       0x73c9b27ab9a27ac2ull, 0x745e0b3b7edbdbc5ull, 0xe9aa7e65f7f06915ull,
       0xcb202b4dc68dece8ull, 0xa7837e0ac4ec0081ull, 0x83466d8793d2a10aull,
       0x77250e78e1aeb823ull, 0x096ce974ee6c1002ull, 0x174b265eaacfffb7ull},
      {0xf077f88dfa271904ull, 0xf6e6f13240d59512ull, 0x02f3ad0dced4fe91ull,
       0x73c9b27ab9a27ac2ull, 0x745e0b3b7edbdbc5ull, 0xe9aa7e65f7f06915ull,
       0xcb202b4dc68dece8ull, 0xa7837e0ac4ec0081ull, 0x83466d8793d2a10aull,
       0x77250e78e1aeb823ull, 0x096ce974ee6c1002ull, 0x174b265eaacfffb7ull},
      {0x513ab5d1c8c1fabeull, 0x7593fa5dd165dc52ull, 0x1213ea91558fc06eull,
       0x479885c48084bfd4ull, 0x4f5a5cdcd6ff71b4ull, 0x115d3ba261492540ull,
       0xbd63e6ba070fcbecull, 0x23e9b0a4ff3d5a76ull, 0xaa0b283bb69b8b40ull,
       0x106749067ae7c1b1ull, 0xd128899dd6a4cb66ull, 0xd49e1f2de4559456ull},
      {0x725631b64f7719a6ull, 0x62e5360478e809c2ull, 0x4a5d28979a4cc7c6ull,
       0xb30af4b372e01c28ull, 0xd5b9a21e45e328fcull, 0x2672cdd46d8b8ea6ull,
       0x35752151389df61aull, 0x291bbd1a50c841d4ull, 0xfe46c57147e9a56eull,
       0x77603dc0e5c2b22bull, 0xc87c44c164bb556dull, 0xd7b128e4df46319cull},
      {0x725631b64f7719a6ull, 0x62e5360478e809c2ull, 0x4a5d28979a4cc7c6ull,
       0xb30af4b372e01c28ull, 0xd5b9a21e45e328fcull, 0x2672cdd46d8b8ea6ull,
       0x35752151389df61aull, 0x291bbd1a50c841d4ull, 0xfe46c57147e9a56eull,
       0x77603dc0e5c2b22bull, 0xc87c44c164bb556dull, 0xd7b128e4df46319cull},
      {0xf2d33332bd531fa8ull, 0x7f832f993ef5fe15ull, 0x1a19668747db9b93ull,
       0xf454432f8a3845eaull, 0xbfeb8530fcb354a3ull, 0xdd281bc396bdc94bull,
       0x4f6fcde39f0b4618ull, 0xba8fb5383f3f6c70ull, 0x66ad291d025bdad4ull,
       0x32f0aea2471ba329ull, 0xa5ccb85f2ad6a380ull, 0xfa8e1b48c77e74c7ull},
      {0x7310ce90804cc0d0ull, 0x7241ba119e8c7f25ull, 0xc0a2ba762768383bull,
       0xb4761d35b837181eull, 0x80d09d3ae0bfee1bull, 0x76b41fd032b77c2dull,
       0x91eaa8ad14ae734eull, 0x15e2f63c582d3d36ull, 0x396fba6c50d84426ull,
       0x62661675ee42bad7ull, 0x82d0e97e83f50cbfull, 0x84c89fbe5044e28full},
      {0x7310ce90804cc0d0ull, 0x7241ba119e8c7f25ull, 0xc0a2ba762768383bull,
       0xb4761d35b837181eull, 0x80d09d3ae0bfee1bull, 0x76b41fd032b77c2dull,
       0x91eaa8ad14ae734eull, 0x15e2f63c582d3d36ull, 0x396fba6c50d84426ull,
       0x62661675ee42bad7ull, 0x82d0e97e83f50cbfull, 0x84c89fbe5044e28full}};
  ASSERT_EQ(golden.size(), std::size(kConfigs));
  for (std::size_t c = 0; c < std::size(kConfigs); ++c) {
    const Config& config = kConfigs[c];
    const std::vector<std::string> texts = run_texts(config);
    std::vector<std::uint64_t> got;
    for (const std::string& t : texts) got.push_back(fnv1a(t));
    if (got == golden[c]) continue;
    std::size_t p = 0;
    while (p < golden[c].size() && p < got.size() && got[p] == golden[c][p]) {
      ++p;
    }
    ADD_FAILURE() << config.name << " digests: {" << hex_list(got) << "}\n"
                  << "first differing plan " << p << ":\n"
                  << (p < texts.size() ? texts[p] : std::string());
  }
}

}  // namespace
}  // namespace mvd
