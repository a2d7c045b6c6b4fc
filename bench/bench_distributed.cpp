// Ext-F / Ext-N: distributed warehouse benchmarks.
//
// Default (no arguments) — the *modeled* Ext-F study: communication-aware
// vs site-oblivious view design (the paper's Section 4.1 note on
// incorporating transfer costs). Topology: the member databases are split
// across two operational sites; all warehouse queries are issued at a
// third analysis site. As the per-block link cost grows, the
// communication-aware design diverges from the oblivious one — it
// materializes (ships once per update, reads locally) what the oblivious
// design would re-ship on every query. Both designs come from
// exhaustive_optimal (the parallel fast-path search), so the run exits 1
// if the aware design's distributed total ever exceeds the oblivious
// design's.
//
// `--measured [--smoke]` / `--smoke` — the *measured* Ext-N study: the
// sharded executor serving a point-lookup-heavy workload with analytic
// rollups, plus incremental refresh batches, at 1/2/4/8 shards over the
// same hash-partitioned star data. Point lookups on the partition key
// route to the owning shard and scan ~1/S of the fact table, so serving
// throughput scales with the shard count even on one core; analytic
// aggregates and refresh do the same total work at any shard count. Every
// configuration must produce bit-identical results (the 64-virtual-bucket
// determinism contract). Writes BENCH_distributed.json; in full measured
// mode the run fails (exit 1) unless the combined query+refresh
// throughput at 4 shards is >= 2.5x the 1-shard baseline and all
// configurations agree bit for bit.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/common/random.hpp"
#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/common/text_table.hpp"
#include "src/common/units.hpp"
#include "src/distributed/distributed_evaluator.hpp"
#include "src/exec/sharded.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/mvpp/selection.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

using namespace mvd;

namespace {

// ---- Modeled mode (Ext-F) ------------------------------------------------

SiteTopology make_topology(double link_cost) {
  SiteTopology topo({"analysis", "sales", "manufacturing"}, link_cost);
  topo.place_relation("Order", "sales");
  topo.place_relation("Customer", "sales");
  topo.place_relation("Product", "manufacturing");
  topo.place_relation("Division", "manufacturing");
  topo.place_relation("Part", "manufacturing");
  for (const char* q : {"Q1", "Q2", "Q3", "Q4"}) {
    topo.place_query(q, "analysis");
  }
  return topo;
}

int run_modeled() {
  const Catalog catalog = make_paper_catalog();
  const CostModel model(catalog, paper_cost_config());
  const MvppGraph g = build_figure3_mvpp(model);

  std::cout << "Ext-F — distributed design: base relations at two sites, "
               "queries issued at a third\n\n";

  TextTable table({"link cost/blk", "oblivious set", "oblivious dist. total",
                   "aware set", "aware dist. total", "saving"},
                  {Align::kRight, Align::kLeft, Align::kRight, Align::kLeft,
                   Align::kRight, Align::kRight});

  const MvppEvaluator oblivious_eval(g);
  const MaterializedSet oblivious =
      exhaustive_optimal(oblivious_eval).materialized;

  bool aware_never_worse = true;
  for (double link : {0.0, 1.0, 10.0, 100.0, 500.0, 2000.0}) {
    const DistributedMvppEvaluator dist(g, make_topology(link));
    const MaterializedSet aware = exhaustive_optimal(dist).materialized;
    const double oblivious_cost = dist.total_cost(oblivious);
    const double aware_cost = dist.total_cost(aware);
    aware_never_worse = aware_never_worse && aware_cost <= oblivious_cost;
    table.add_row({format_fixed(link, 1), to_string(g, oblivious),
                   format_blocks(oblivious_cost), to_string(g, aware),
                   format_blocks(aware_cost),
                   format_fixed(100.0 * (1.0 - aware_cost /
                                                  std::max(oblivious_cost,
                                                           1e-9)),
                                1) + "%"});
  }
  std::cout << table.render() << '\n';

  // Show where things run / live for one interesting link cost.
  const DistributedMvppEvaluator dist(g, make_topology(2.0));
  std::cout << "node placement at link cost 2.0:\n";
  for (NodeId v : g.operation_ids()) {
    std::cout << "  " << g.node(v).name << " @ " << dist.site_of(v) << '\n';
  }
  std::cout << "\nreading: with free links the designs agree; as shipping "
               "gets expensive, the aware design stores results near "
               "their consumers, cutting the distributed total.\n"
            << "aware design never costs more than the oblivious one: "
            << (aware_never_worse ? "yes" : "NO") << '\n';
  return aware_never_worse ? 0 : 1;
}

// ---- Measured mode (Ext-N) -----------------------------------------------

/// Order-sensitive FNV-1a fingerprint of a table's rows — the bit-identity
/// witness across shard counts.
std::uint64_t fnv_text(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fingerprint(std::uint64_t h, const Table& t) {
  for (const Tuple& row : t.rows()) {
    for (const Value& v : row) h = fnv_text(h, v.to_string());
    h = fnv_text(h, "|");
  }
  return h;
}

struct ShardRun {
  std::size_t shards = 0;
  double point_secs = 0;
  double analytic_secs = 0;
  double refresh_secs = 0;
  double total_secs = 0;
  double ops = 0;
  double throughput = 0;  // ops/sec over the whole serving+refresh mix
  std::uint64_t result_hash = 0;
  double exchange_blocks = 0;
};

int run_measured(bool smoke) {
  StarSchemaOptions schema;
  schema.dimensions = 3;
  schema.fact_rows = smoke ? 60'000 : 2'000'000;
  schema.dimension_rows = smoke ? 500 : 5'000;
  const Database db = populate_star_database(schema, 2026);
  const Catalog catalog = catalog_from_database(db, 10.0);

  // A small warehouse design so refresh maintains real views: one rollup
  // stored once and one selection view stored partitioned.
  WarehouseDesigner designer(catalog);
  designer.add_query(
      "Rollup", 5.0,
      "SELECT Dim0.category, SUM(Fact.measure), COUNT(*) FROM Fact, Dim0 "
      "WHERE Fact.d0 = Dim0.id GROUP BY Dim0.category");
  designer.add_query("Hot", 20.0,
                     "SELECT Fact.d0, Fact.measure FROM Fact "
                     "WHERE Fact.measure > 900");
  const DesignResult design = designer.design();

  // Pre-generate the update stream once on a scratch copy: every shard
  // configuration replays the identical batches in order.
  const int kBatches = 3;
  std::vector<DeltaSet> batches;
  {
    Database scratch = db;
    Rng rng(404);
    for (int k = 0; k < kBatches; ++k) {
      DeltaSet d;
      apply_update_batch(scratch, "Fact", UpdateStreamOptions{}, rng, &d);
      batches.push_back(std::move(d));
    }
  }

  // Serving mix: point lookups on the partition key (routed to the owning
  // shard) dominate, with a few analytic rollups.
  const int kPoints = smoke ? 24 : 192;
  const int kAnalytic = 2;
  std::vector<PlanPtr> points;
  for (int i = 0; i < kPoints; ++i) {
    const auto key = static_cast<std::int64_t>(
        (static_cast<std::size_t>(i) * 7919) % schema.dimension_rows);
    points.push_back(make_select(make_scan(catalog, "Fact"),
                                 eq(col("Fact.d0"), lit_i64(key))));
  }
  const PlanPtr analytic = make_aggregate(
      make_join(make_scan(catalog, "Fact"), make_scan(catalog, "Dim0"),
                eq(col("Fact.d0"), col("Dim0.id"))),
      {"Dim0.category"},
      {AggSpec{AggFn::kSum, "Fact.measure", ""}, AggSpec{AggFn::kCount, "", ""}});

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };

  std::cout << "Ext-N — measured sharded serving ("
            << format_blocks(static_cast<double>(schema.fact_rows))
            << " fact rows" << (smoke ? ", smoke" : "") << ")\n\n";

  std::vector<ShardRun> runs;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    Database sdb = shard_database(db, shards, {{"Fact", "d0"}});
    designer.deploy(design, sdb);  // setup, untimed
    const ShardedExecutor exec(sdb);

    ShardRun run;
    run.shards = shards;
    std::uint64_t h = 1469598103934665603ULL;

    // Serving round 1: point lookups + analytic rollups.
    auto t0 = now();
    for (const PlanPtr& p : points) h = fingerprint(h, exec.run(p));
    auto t1 = now();
    for (int i = 0; i < kAnalytic; ++i) h = fingerprint(h, exec.run(analytic));
    auto t2 = now();
    run.point_secs += secs(t0, t1);
    run.analytic_secs += secs(t1, t2);

    // Refresh: route the base deltas to their owning buckets, then
    // incrementally maintain the deployed views.
    auto t3 = now();
    for (const DeltaSet& batch : batches) {
      apply_base_deltas(sdb, batch);
      designer.refresh(design, sdb, batch, RefreshMode::kIncremental);
    }
    auto t4 = now();
    run.refresh_secs = secs(t3, t4);

    // Serving round 2, post-refresh: maintenance must not degrade routing.
    auto t5 = now();
    for (const PlanPtr& p : points) h = fingerprint(h, exec.run(p));
    auto t6 = now();
    run.point_secs += secs(t5, t6);

    // Fingerprint the maintained view state too (partitioned views are
    // stored in bucket order) — refresh correctness is part of the
    // determinism contract.
    for (NodeId v : design.selection.materialized) {
      h = fingerprint(h, sdb.table(design.graph().node(v).name));
    }

    run.total_secs = run.point_secs + run.analytic_secs + run.refresh_secs;
    run.ops = static_cast<double>(2 * kPoints + kAnalytic + kBatches);
    run.throughput = run.ops / run.total_secs;
    run.result_hash = h;
    run.exchange_blocks = sdb.exchange_log().total_blocks();
    runs.push_back(run);
  }

  TextTable table({"shards", "point qps", "analytic s", "refresh s",
                   "ops/s", "vs 1 shard", "identical"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight});
  bool identical = true;
  for (const ShardRun& r : runs) {
    const bool same = r.result_hash == runs.front().result_hash;
    identical = identical && same;
    table.add_row(
        {std::to_string(r.shards),
         format_fixed(2.0 * kPoints / r.point_secs, 1),
         format_fixed(r.analytic_secs, 3), format_fixed(r.refresh_secs, 3),
         format_fixed(r.throughput, 1),
         format_fixed(r.throughput / runs.front().throughput, 2) + "x",
         same ? "yes" : "NO"});
  }
  std::cout << table.render() << '\n';

  const ShardRun* four = nullptr;
  for (const ShardRun& r : runs) {
    if (r.shards == 4) four = &r;
  }
  const double speedup4 = four->throughput / runs.front().throughput;
  const double kTarget = 2.5;
  const bool speedup_ok = smoke || speedup4 >= kTarget;
  std::cout << "4-shard query+refresh throughput: "
            << format_fixed(speedup4, 2) << "x the 1-shard baseline (target "
            << format_fixed(kTarget, 1) << "x"
            << (smoke ? ", not gated in smoke mode" : "") << ") "
            << (speedup_ok ? "ok" : "MISSED") << '\n'
            << "bit-identical across configurations: "
            << (identical ? "yes" : "NO") << '\n';

  Json report = Json::object();
  report.set("bench", Json::string("distributed_measured"));
  report.set("smoke", Json::boolean(smoke));
  report.set("hardware_threads",
             Json::number(static_cast<std::size_t>(
                 std::thread::hardware_concurrency())));
  Json workload = Json::object();
  workload.set("fact_rows", Json::number(schema.fact_rows));
  workload.set("dimension_rows", Json::number(schema.dimension_rows));
  workload.set("dimensions", Json::number(schema.dimensions));
  workload.set("point_queries_per_round", Json::number(kPoints));
  workload.set("analytic_queries", Json::number(kAnalytic));
  workload.set("refresh_batches", Json::number(kBatches));
  report.set("workload", std::move(workload));
  Json shard_json = Json::array();
  for (const ShardRun& r : runs) {
    Json j = Json::object();
    j.set("shards", Json::number(r.shards));
    j.set("point_secs", Json::number(r.point_secs));
    j.set("analytic_secs", Json::number(r.analytic_secs));
    j.set("refresh_secs", Json::number(r.refresh_secs));
    j.set("total_secs", Json::number(r.total_secs));
    j.set("ops_per_sec", Json::number(r.throughput));
    j.set("speedup_vs_1_shard",
          Json::number(r.throughput / runs.front().throughput));
    j.set("exchange_blocks", Json::number(r.exchange_blocks));
    j.set("result_hash", Json::string(std::to_string(r.result_hash)));
    shard_json.push_back(std::move(j));
  }
  report.set("shard_runs", std::move(shard_json));
  report.set("speedup_4_shards", Json::number(speedup4));
  report.set("speedup_target", Json::number(kTarget));
  report.set("speedup_ok", Json::boolean(speedup_ok));
  report.set("bit_identical", Json::boolean(identical));

  std::ofstream out("BENCH_distributed.json");
  out << report.dump(2) << '\n';
  std::cout << "wrote BENCH_distributed.json\n";
  return (identical && speedup_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool measured = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--measured") measured = true;
    if (arg == "--smoke") measured = smoke = true;
  }
  return measured ? run_measured(smoke) : run_modeled();
}
