// Ext-J: incremental vs recompute view maintenance, executed.
//
// Deploys a star-schema warehouse, then sweeps the update fraction of
// the fact table from 0.1% to 50%. At each point one captured update
// batch is refreshed twice from the identical starting state — once
// through the incremental delta driver, once by recomputing every
// refresh plan — measuring wall time and the engines' block accounting
// for both, checking the two warehouses stay bag-identical, and
// reporting the crossover fraction where recomputation catches up. The
// incremental refresh is timed on the row engine and on the vectorized
// engine at one thread (the one MvServer and mvbench refresh on); the
// bench exits nonzero if their block counts differ. The vec@1 refresh is
// timed once more as MvServer pays for it: on a staging copy while the
// pre-update copy is held (so each view it writes is cloned first), and
// through the release of that copy. Everything is written to
// BENCH_maintenance.json.
//
// `--smoke` shrinks the dataset and repetitions for CI.
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/common/text_table.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/generator.hpp"

using namespace mvd;

namespace {

struct Timed {
  double secs = 0;
  double blocks = 0;
  RefreshReport report;
};

// A Database copy shares its tables, so a refresh timed on a plain copy
// would also time cloning each view on its first write. A trial starts
// from tables of its own instead, copied before the clock (the "held"
// trial below times the clones on purpose).
Database private_copy(const Database& db) {
  Database out = db;
  for (const std::string& name : db.table_names()) {
    out.put_table(name, db.table(name));
  }
  return out;
}

template <typename F>
Timed best_run(int reps, F&& refresh_once) {
  Timed best;
  best.secs = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timed t = refresh_once();
    if (t.secs < best.secs) best = std::move(t);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int reps = smoke ? 2 : 3;

  StarSchemaOptions schema;
  schema.dimensions = 3;
  schema.fact_rows = smoke ? 20'000 : 200'000;
  schema.dimension_rows = smoke ? 500 : 2'000;
  schema.categories = 12;
  Database db = populate_star_database(schema, 2026);
  const Catalog catalog = catalog_from_database(db, schema.blocking_factor);

  StarQueryOptions qopts;
  qopts.count = 6;
  qopts.max_dimensions = 2;
  qopts.aggregation_probability = 0.5;
  qopts.seed = 7;
  WarehouseDesigner designer(catalog);
  for (QuerySpec& q : generate_star_queries(catalog, schema, qopts)) {
    designer.add_query(std::move(q));
  }
  DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  MaterializedSet& m = design.selection.materialized;
  for (NodeId q : g.query_ids()) m.insert(g.node(q).children[0]);
  designer.deploy(design, db);
  const Database baseline = db;  // deployed, pre-update

  std::cout << "Ext-J — incremental vs recompute maintenance ("
            << schema.fact_rows << " fact rows, " << m.size() << " views"
            << (smoke ? ", smoke" : "") << ")\n\n";

  Json report = Json::object();
  report.set("bench", Json::string("incremental_maintenance"));
  report.set("smoke", Json::boolean(smoke));
  report.set("hardware_threads",
             Json::number(static_cast<std::size_t>(
                 std::thread::hardware_concurrency())));
  Json workload = Json::object();
  workload.set("fact_rows", Json::number(schema.fact_rows));
  workload.set("dimension_rows", Json::number(schema.dimension_rows));
  workload.set("dimensions", Json::number(schema.dimensions));
  workload.set("views", Json::number(m.size()));
  report.set("workload", workload);

  const std::vector<double> fractions = {0.001, 0.005, 0.01, 0.05, 0.1, 0.5};
  TextTable table({"update fraction", "incremental row", "incremental vec@1",
                   "vec@1 held", "recompute", "speedup", "inc blocks",
                   "rec blocks"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});
  Json sweep = Json::array();
  bool all_agree = true;
  bool engines_agree = true;
  double crossover = -1;  // first swept fraction where incremental loses

  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const double fraction = fractions[i];
    // One captured batch against the fact table, fixed across modes and
    // repetitions so every refresh does identical logical work.
    UpdateStreamOptions opts;
    opts.modify_fraction = fraction / 2;
    opts.insert_fraction = fraction / 4;
    opts.delete_fraction = fraction / 4;
    Database updated = baseline;
    DeltaSet batch;
    Rng rng(90 + static_cast<std::uint64_t>(i));
    apply_update_batch(updated, "Fact", opts, rng, &batch);

    // Starting state for a refresh: post-update bases, pre-update views.
    const auto incremental = [&](ExecMode mode) {
      return best_run(reps, [&] {
        Database run_db = private_copy(updated);
        Timed t;
        ExecStats stats;
        const auto t0 = std::chrono::steady_clock::now();
        t.report = incremental_refresh(g, m, run_db, batch, &stats, mode, 1);
        t.secs = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        t.blocks = stats.blocks_read;
        return t;
      });
    };
    const Timed inc = incremental(ExecMode::kRow);
    const Timed inc_vec = incremental(ExecMode::kVectorized);
    // As served: MvServer refreshes a staging copy of the snapshot it has
    // published and holds until the new one is out, then drops the old.
    const Timed inc_held = best_run(reps, [&] {
      std::optional<Database> held = private_copy(updated);
      Database run_db = *held;
      Timed t;
      ExecStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      t.report = incremental_refresh(g, m, run_db, batch, &stats,
                                     ExecMode::kVectorized, 1);
      held.reset();
      t.secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      t.blocks = stats.blocks_read;
      return t;
    });
    engines_agree = engines_agree && inc.blocks == inc_vec.blocks &&
                    inc_vec.blocks == inc_held.blocks;
    const Timed rec = best_run(reps, [&] {
      Database run_db = private_copy(updated);
      Timed t;
      ExecStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      t.report = designer.refresh(design, run_db, batch,
                                  RefreshMode::kRecompute, &stats);
      t.secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      t.blocks = stats.blocks_read;
      return t;
    });

    // Consistency: both disciplines must land on the same stored views.
    Database inc_db = updated;
    incremental_refresh(g, m, inc_db, batch);
    Database rec_db = updated;
    designer.refresh(design, rec_db, batch, RefreshMode::kRecompute);
    bool agree = true;
    for (NodeId v : m) {
      const std::string& name = g.node(v).name;
      agree = agree && same_bag(inc_db.table(name), rec_db.table(name));
    }
    all_agree = all_agree && agree;

    const double speedup = rec.secs / inc.secs;
    if (crossover < 0 && speedup < 1) crossover = fraction;
    Json j = Json::object();
    j.set("update_fraction", Json::number(fraction));
    j.set("delta_rows", Json::number(batch.at("Fact").row_count()));
    Json inc_secs = Json::object();
    inc_secs.set("row", Json::number(inc.secs));
    inc_secs.set("vec@1", Json::number(inc_vec.secs));
    inc_secs.set("vec@1_held", Json::number(inc_held.secs));
    j.set("incremental_secs", std::move(inc_secs));
    j.set("recompute_secs", Json::number(rec.secs));
    j.set("speedup", Json::number(speedup));
    j.set("incremental_blocks", Json::number(inc.blocks));
    j.set("incremental_vec_blocks", Json::number(inc_vec.blocks));
    j.set("recompute_blocks", Json::number(rec.blocks));
    j.set("block_ratio", Json::number(rec.blocks / inc.blocks));
    j.set("group_applied", Json::number(
        inc.report.count(RefreshPath::kGroupApplied)));
    j.set("applied", Json::number(inc.report.count(RefreshPath::kApplied)));
    j.set("recompute_fallbacks", Json::number(
        inc.report.count(RefreshPath::kRecomputed)));
    j.set("same_bag", Json::boolean(agree));
    sweep.push_back(std::move(j));
    table.add_row({format_fixed(fraction, 3),
                   format_fixed(inc.secs * 1e3, 1) + " ms",
                   format_fixed(inc_vec.secs * 1e3, 1) + " ms",
                   format_fixed(inc_held.secs * 1e3, 1) + " ms",
                   format_fixed(rec.secs * 1e3, 1) + " ms",
                   format_fixed(speedup, 2) + "x",
                   format_fixed(inc.blocks, 0), format_fixed(rec.blocks, 0)});
  }
  report.set("sweep", std::move(sweep));
  report.set("all_same_bag", Json::boolean(all_agree));
  report.set("engines_same_blocks", Json::boolean(engines_agree));
  report.set("crossover_fraction",
             crossover < 0 ? Json::null() : Json::number(crossover));

  std::cout << table.render() << '\n'
            << "results agree: " << (all_agree ? "yes" : "NO") << '\n'
            << "row, vec@1 and held vec@1 incremental blocks agree: "
            << (engines_agree ? "yes" : "NO") << '\n';
  if (crossover >= 0) {
    std::cout << "crossover: incremental loses from update fraction "
              << format_fixed(crossover, 3) << '\n';
  } else {
    std::cout << "crossover: none within the swept range\n";
  }

  std::ofstream out("BENCH_maintenance.json");
  out << report.dump(2) << '\n';
  std::cout << "wrote BENCH_maintenance.json\n";
  return all_agree && engines_agree ? 0 : 1;
}
