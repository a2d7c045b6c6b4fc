// Validation of the incremental maintenance cost models against the
// executed refresh driver's measured block work.
//
// Two models are on trial. executed_refresh_estimate mirrors the
// executed driver (hash probes, frontier reuse, grouped applies) and is
// held to a ~2.5x band around measured blocks. incremental_delta_cost —
// the classic planning-era model — has a documented two-sided bias: it
// omits producing join full sides from the frontier (pulling estimates
// under measured work) while its block-nested-loop probe term
// (delta.blocks × other.blocks per join) grows with the delta, so it
// overtakes measured work as batches grow; the tests pin which effect
// dominates and how the bias grows rather than band it. Base catalogs are computed from the populated
// tables and interior (rows, blocks) annotations are overlaid with
// executed truth, so residual error isolates the models' structural
// assumptions (all-delta paths, deletes-everywhere stored rewrites,
// probe shape) from cardinality-estimation error — which is measured
// elsewhere (lint estimate-vs-executed rules).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/maintenance/incremental.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

/// Measured vs modeled block work for one refresh round.
struct Validation {
  double executed = 0;  // ExecStats blocks from incremental_refresh
  double mirror = 0;    // executed_refresh_estimate
  double classic = 0;   // Σ incremental_delta_cost over updated bases
  std::size_t recomputed = 0;  // fallback count (mirror assumes zero)
};

struct Workload {
  WarehouseDesigner designer;
  DesignResult design;
  Database db;
  std::vector<std::string> update_relations;
};

Workload make_paper_workload() {
  // Truthful base statistics: catalog computed from the populated tables,
  // not the paper's nominal cardinalities.
  Database db = populate_paper_database(0.05, 23);
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(catalog_from_database(db, 10.0), options);
  for (const QuerySpec& q : make_paper_example().queries) {
    designer.add_query(q);
  }
  DesignResult design = designer.design();
  return {std::move(designer), std::move(design), std::move(db),
          {"Order", "Division", "Product", "Customer"}};
}

Workload make_star_workload() {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  schema.fact_rows = 5'000;
  schema.dimension_rows = 250;
  schema.categories = 8;
  Database db = populate_star_database(schema, 29);
  Catalog catalog = catalog_from_database(db, schema.blocking_factor);
  StarQueryOptions qopts;
  qopts.count = 6;
  qopts.max_dimensions = 2;
  qopts.aggregation_probability = 0.5;
  qopts.seed = 19;
  WarehouseDesigner designer(catalog);
  for (QuerySpec& q : generate_star_queries(catalog, schema, qopts)) {
    designer.add_query(std::move(q));
  }
  DesignResult design = designer.design();
  return {std::move(designer), std::move(design), std::move(db),
          {"Fact", "Dim0", "Dim1"}};
}

/// Replace every operation node's estimated (rows, blocks) annotation
/// with the executed truth, so model validation isolates the cost
/// models' structural assumptions from cardinality-estimation error —
/// the same philosophy as catalog_from_database for base stats.
void overlay_executed_cardinalities(MvppGraph& g, const Database& db) {
  MvppGraphMutator mut(g);
  const Executor exec(db, ExecMode::kRow, 1);
  for (NodeId id = 0; id < static_cast<NodeId>(g.size()); ++id) {
    if (!g.node(id).is_operation()) continue;
    const Table t = exec.run(refresh_plan(g, id, {}));
    mut.node(id).rows = static_cast<double>(t.row_count());
    mut.node(id).blocks = t.blocks();
  }
  mut.mark_annotated(true);
}

/// Deploy, run one mixed update batch over every update relation at
/// `fraction`, refresh incrementally, and price the same round with both
/// models (base fractions taken from the *actual* compacted delta blocks,
/// so all three numbers describe the identical batch).
Validation run_round(Workload w, double fraction, std::uint64_t seed) {
  MvppGraph& g = w.design.candidates[w.design.mvpp_index].graph;
  MaterializedSet& m = w.design.selection.materialized;
  for (NodeId q : g.query_ids()) m.insert(g.node(q).children[0]);
  overlay_executed_cardinalities(g, w.db);
  w.designer.deploy(w.design, w.db);

  UpdateStreamOptions opts;
  opts.modify_fraction = fraction;
  opts.insert_fraction = fraction / 2;
  opts.delete_fraction = fraction / 2;
  Rng rng(seed);
  DeltaSet batch;
  for (const std::string& rel : w.update_relations) {
    apply_update_batch(w.db, rel, opts, rng, &batch);
  }

  Validation v;
  ExecStats stats;
  const RefreshReport report =
      incremental_refresh(g, m, w.db, batch, &stats, ExecMode::kRow, 1);
  v.executed = stats.blocks_read;
  v.recomputed = report.count(RefreshPath::kRecomputed);
  EXPECT_DOUBLE_EQ(report.total_blocks_read(), stats.blocks_read);

  std::map<NodeId, double> base_fractions;
  for (const auto& [rel, delta] : batch) {
    const NodeId b = g.find_by_name(rel);
    const double blocks = g.node(b).blocks;
    base_fractions[b] =
        blocks > 0 ? delta.compacted().blocks() / blocks : 0;
  }
  v.mirror = executed_refresh_estimate(g, m, base_fractions);
  for (NodeId view : m) {
    for (const auto& [b, f] : base_fractions) {
      v.classic += incremental_delta_cost(g, view, b, {f});
    }
  }
  return v;
}

constexpr double kTolerance = 2.5;  // mirror estimate band, either side

void expect_within_band(const Validation& v) {
  ASSERT_GT(v.executed, 0);
  ASSERT_GT(v.mirror, 0);
  EXPECT_LT(v.mirror / v.executed, kTolerance)
      << "mirror=" << v.mirror << " executed=" << v.executed;
  EXPECT_LT(v.executed / v.mirror, kTolerance)
      << "mirror=" << v.mirror << " executed=" << v.executed;
}

TEST(IncrementalCostValidationTest, PaperMirrorEstimateWithinBand) {
  // Figure 3 workload (Q1..Q4), 1% batch: the executed-mirror model must
  // land within kTolerance of measured blocks.
  expect_within_band(run_round(make_paper_workload(), 0.01, 41));
}

TEST(IncrementalCostValidationTest, PaperMirrorEstimateLargerBatch) {
  expect_within_band(run_round(make_paper_workload(), 0.10, 43));
}

TEST(IncrementalCostValidationTest, StarMirrorEstimateWithinBand) {
  expect_within_band(run_round(make_star_workload(), 0.01, 47));
}

TEST(IncrementalCostValidationTest, StarMirrorEstimateLargerBatch) {
  expect_within_band(run_round(make_star_workload(), 0.10, 53));
}

TEST(IncrementalCostValidationTest, ClassicModelBiasIsBatchSizeDependent) {
  // Documented bias of the classic planning model. It never charges
  // producing a join's full side from the frontier (the executed driver
  // must build it), which pulls it under measured work, but its
  // block-nested-loop probe (delta.blocks × other.blocks) grows with the
  // delta where the executed hash probe reads each side once. With
  // aggregate views priced by the grouped-apply rule, which charges the
  // BNL probes of the joins beneath them, the probe dominates a small
  // batch on both workloads — the classic model overestimates — and its
  // total grows strictly faster with batch size than measured work.
  // Both are deterministic under the fixed seeds.
  const Validation small = run_round(make_star_workload(), 0.01, 47);
  const Validation large = run_round(make_star_workload(), 0.20, 47);
  EXPECT_GT(small.classic, small.executed);
  EXPECT_GT(large.classic / small.classic, large.executed / small.executed);
  const Validation psmall = run_round(make_paper_workload(), 0.01, 41);
  const Validation plarge = run_round(make_paper_workload(), 0.20, 41);
  EXPECT_GT(psmall.classic, psmall.executed);
  EXPECT_GT(plarge.classic / psmall.classic,
            plarge.executed / psmall.executed);
}

TEST(IncrementalCostValidationTest, ModelsTrackBatchSizeMonotonically) {
  // Both models and the measurement must agree on the direction: bigger
  // batches cost more.
  const Validation small = run_round(make_star_workload(), 0.01, 59);
  const Validation large = run_round(make_star_workload(), 0.20, 59);
  EXPECT_GT(large.executed, small.executed);
  EXPECT_GT(large.mirror, small.mirror);
  EXPECT_GT(large.classic, small.classic);
}

}  // namespace
}  // namespace mvd
