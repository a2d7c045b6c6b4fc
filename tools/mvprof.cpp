// mvprof — end-to-end profiler for the warehouse-design pipeline.
//
//   mvprof                      profile the paper workload (design,
//                               populate, deploy, answer, update+refresh)
//   mvprof --paper              same, explicitly
//   mvprof --input FILE         profile selection over a serialized MVPP
//                               (to_json output; paper catalog relations)
//   mvprof --scale X            database scale for --paper (default 0.01)
//   mvprof --shards N           run the --paper pipeline on a sharded
//                               layout (Order hash-partitioned on Cid,
//                               dimensions replicated) and report the
//                               exec/exchange/* traffic counters;
//                               defaults to MVD_EXEC_SHARDS when set
//   mvprof --out DIR            where trace.json / metrics.json go
//                               (default ".")
//   mvprof --json               machine-readable phase summary on stdout
//   mvprof --exec row|vec       execution engine for every plan (default:
//                               MVD_EXEC_MODE, else row)
//
// Runs with full tracing on (MVD_TRACE=spans equivalent), prints a
// phase-by-phase table of wall time and registry deltas, then writes
//
//   trace.json    Chrome trace-event document — load in chrome://tracing
//                 or https://ui.perfetto.dev
//   metrics.json  final MetricsRegistry snapshot
//
// and reconciles the published "selection/ledger/..." gauges against the
// design's reported selection costs (the obs/metrics-consistent
// contract). Exit status: 0 ok, 1 reconciliation failure, 2 usage/load
// problems.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/exec/executor.hpp"
#include "src/common/random.hpp"
#include "src/common/strings.hpp"
#include "src/common/text_table.hpp"
#include "src/common/units.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/mvpp/serialize.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/obs/workload.hpp"
#include "src/storage/sharded_table.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"

namespace {

using namespace mvd;

int usage(const std::string& problem) {
  std::cerr << "mvprof: " << problem << "\n"
            << "usage: mvprof [--paper | --input FILE] [--scale X]\n"
            << "              [--shards N] [--out DIR] [--json]\n"
            << "              [--exec row|vec]\n";
  return 2;
}

struct PhaseRow {
  std::string name;
  double wall_ms = 0;
  std::size_t events = 0;       // trace events recorded during the phase
  MetricsSnapshot delta;        // registry activity during the phase
};

/// Run `fn` as one named phase: a top-level span plus wall time, trace
/// event count and registry snapshot deltas.
template <typename Fn>
void run_phase(std::vector<PhaseRow>& rows, const char* name, Fn&& fn) {
  PhaseRow row;
  row.name = name;
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const std::size_t events_before = Tracer::global().event_count();
  const auto t0 = std::chrono::steady_clock::now();
  {
    TraceSpan span("mvprof", name);
    fn();
  }
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.events = Tracer::global().event_count() - events_before;
  row.delta = MetricsRegistry::global().snapshot().diff(before);
  rows.push_back(std::move(row));
}

double counter_of(const MetricsSnapshot& s, const std::string& name) {
  return s.value_of(name).value_or(0);
}

void print_phase_table(const std::vector<PhaseRow>& rows) {
  TextTable table({"phase", "wall ms", "trace events", "blocks read",
                   "rows scanned", "cost evals"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight});
  for (const PhaseRow& row : rows) {
    std::ostringstream ms;
    ms.setf(std::ios::fixed);
    ms.precision(2);
    ms << row.wall_ms;
    table.add_row(
        {row.name, ms.str(), std::to_string(row.events),
         format_blocks(counter_of(row.delta, "exec/total/blocks_read")),
         format_blocks(counter_of(row.delta, "exec/total/rows_scanned")),
         format_blocks(
             counter_of(row.delta, "selection/fast_eval/evaluations"))});
  }
  std::cout << table.render();
}

Json phases_to_json(const std::vector<PhaseRow>& rows) {
  Json arr = Json::array();
  for (const PhaseRow& row : rows) {
    Json p = Json::object();
    p.set("phase", Json::string(row.name));
    p.set("wall_ms", Json::number(row.wall_ms));
    p.set("trace_events", Json::number(row.events));
    p.set("metrics", row.delta.to_json().at("metrics"));
    arr.push_back(std::move(p));
  }
  return arr;
}

bool close_enough(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= 1e-9 * scale;
}

/// The acceptance gate: the gauges the design published must equal the
/// selection costs it reported — same contract obs/metrics-consistent
/// enforces in mvlint.
bool reconcile_ledger(const MetricsSnapshot& snap, const MvppCosts& costs,
                      Json& out) {
  const double qp =
      snap.value_of("selection/ledger/query_blocks").value_or(-1);
  const double maint =
      snap.value_of("selection/ledger/maintenance_blocks").value_or(-1);
  const bool ok = close_enough(qp, costs.query_processing) &&
                  close_enough(maint, costs.maintenance);
  out = Json::object();
  out.set("ledger_query_blocks", Json::number(qp));
  out.set("selection_query_blocks", Json::number(costs.query_processing));
  out.set("ledger_maintenance_blocks", Json::number(maint));
  out.set("selection_maintenance_blocks", Json::number(costs.maintenance));
  out.set("consistent", Json::boolean(ok));
  return ok;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write '" + path + "'");
  out << text;
}

/// Full pipeline over the paper workload. With `shards` > 0 the runtime
/// phases (deploy, answer, update, refresh) run against the sharded
/// layout — Order hash-partitioned on Cid, dimensions replicated — and
/// the exchange traffic is reported alongside the ledger gate.
int profile_paper(double scale, std::size_t shards,
                  const std::string& out_dir, bool as_json) {
  const PaperExample example = make_paper_example();
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(example.catalog, options);
  for (const QuerySpec& q : example.queries) designer.add_query(q);

  std::vector<PhaseRow> rows;
  DesignResult design;
  run_phase(rows, "design", [&] { design = designer.design(); });
  const MetricsSnapshot after_design = MetricsRegistry::global().snapshot();

  Database db;
  run_phase(rows, "populate",
            [&] { db = populate_paper_database(scale, 17); });

  std::optional<ShardedDatabase> sdb;
  if (shards > 0) {
    run_phase(rows, "shard", [&] {
      sdb.emplace(shard_database(db, shards, {{"Order", "Cid"}}));
    });
  }

  ExecStats deploy_stats;
  run_phase(rows, "deploy", [&] {
    if (sdb) {
      designer.deploy(design, *sdb, &deploy_stats);
    } else {
      designer.deploy(design, db, &deploy_stats);
    }
  });

  run_phase(rows, "answer", [&] {
    // Per-answer latencies land in a histogram so the summary can report
    // percentile estimates alongside the phase wall time.
    Histogram& latency = MetricsRegistry::global().histogram(
        "designer/answer/latency_ms", serve_latency_bounds());
    for (const QuerySpec& q : example.queries) {
      const auto a0 = std::chrono::steady_clock::now();
      if (sdb) {
        (void)designer.answer(design, q.name(), *sdb);
      } else {
        (void)designer.answer(design, q.name(), db);
      }
      const auto a1 = std::chrono::steady_clock::now();
      latency.observe(
          std::chrono::duration<double, std::milli>(a1 - a0).count());
    }
  });

  DeltaSet deltas;
  Rng rng(99);
  run_phase(rows, "update", [&] {
    for (const char* relation : {"Order", "Customer"}) {
      (void)apply_update_batch(db, relation, UpdateStreamOptions{}, rng,
                               &deltas);
    }
    // The sharded layout receives the same base changes: partitioned
    // deltas shuffle to their owning buckets, dimension deltas broadcast.
    if (sdb) sdb->apply_base_deltas(deltas);
  });

  RefreshReport refresh;
  run_phase(rows, "refresh", [&] {
    if (sdb) {
      refresh =
          designer.refresh(design, *sdb, deltas, RefreshMode::kIncremental);
    } else {
      refresh = designer.refresh(design, db, deltas, RefreshMode::kIncremental);
    }
  });

  const MetricsSnapshot final_snap = MetricsRegistry::global().snapshot();
  Json reconciliation;
  const bool consistent =
      reconcile_ledger(after_design, design.selection.costs, reconciliation);

  const std::string trace_path = out_dir + "/trace.json";
  const std::string metrics_path = out_dir + "/metrics.json";
  write_file(trace_path, Tracer::global().to_chrome_json().dump(2) + "\n");
  write_file(metrics_path, final_snap.to_json().dump(2) + "\n");

  if (as_json) {
    Json doc = Json::object();
    doc.set("workload", Json::string("paper"));
    doc.set("scale", Json::number(scale));
    doc.set("phases", phases_to_json(rows));
    doc.set("ledger", std::move(reconciliation));
    doc.set("refreshed_views", Json::number(refresh.views.size()));
    if (sdb) {
      const ExchangeCounters& x = sdb->exchange_log();
      Json exchange = Json::object();
      exchange.set("shards", Json::number(shards));
      exchange.set("shuffle_rows", Json::number(x.shuffle_rows));
      exchange.set("shuffle_blocks", Json::number(x.shuffle_blocks));
      exchange.set("broadcast_rows", Json::number(x.broadcast_rows));
      exchange.set("broadcast_blocks", Json::number(x.broadcast_blocks));
      exchange.set("broadcast_bytes", Json::number(x.broadcast_bytes));
      exchange.set("gather_rows", Json::number(x.gather_rows));
      exchange.set("gather_blocks", Json::number(x.gather_blocks));
      doc.set("exchange", std::move(exchange));
    }
    const auto lat = final_snap.metrics.find("designer/answer/latency_ms");
    if (lat != final_snap.metrics.end()) {
      Json latency = Json::object();
      latency.set("count", Json::number(lat->second.count));
      latency.set("p50", Json::number(lat->second.percentile(0.50)));
      latency.set("p95", Json::number(lat->second.percentile(0.95)));
      latency.set("p99", Json::number(lat->second.percentile(0.99)));
      doc.set("answer_latency_ms", std::move(latency));
    }
    doc.set("trace_file", Json::string(trace_path));
    doc.set("metrics_file", Json::string(metrics_path));
    std::cout << doc.dump(2) << "\n";
  } else {
    print_phase_table(rows);
    const auto lat = final_snap.metrics.find("designer/answer/latency_ms");
    if (lat != final_snap.metrics.end() && lat->second.count > 0) {
      std::cout << "\nanswer latency: p50 "
                << format_fixed(lat->second.percentile(0.50), 3) << " ms, p95 "
                << format_fixed(lat->second.percentile(0.95), 3) << " ms, p99 "
                << format_fixed(lat->second.percentile(0.99), 3) << " ms over "
                << lat->second.count << " answers\n";
    }
    if (sdb) {
      const ExchangeCounters& x = sdb->exchange_log();
      std::cout << "\nexchange (" << shards << " shards): shuffle "
                << format_blocks(x.shuffle_rows) << " rows / "
                << format_blocks(x.shuffle_blocks) << " blocks, broadcast "
                << format_blocks(x.broadcast_rows) << " rows / "
                << format_blocks(x.broadcast_blocks) << " blocks ("
                << format_blocks(x.broadcast_bytes) << " bytes), gather "
                << format_blocks(x.gather_rows) << " rows / "
                << format_blocks(x.gather_blocks) << " blocks\n";
    }
    std::cout << "\nledger reconciliation: "
              << (consistent ? "ok" : "MISMATCH") << " (query "
              << format_blocks(counter_of(after_design,
                                          "selection/ledger/query_blocks"))
              << " vs " << format_blocks(design.selection.costs.query_processing)
              << ", maintenance "
              << format_blocks(counter_of(
                     after_design, "selection/ledger/maintenance_blocks"))
              << " vs " << format_blocks(design.selection.costs.maintenance)
              << ")\n";
    std::cout << "trace:   " << trace_path << "  (chrome://tracing or "
              << "ui.perfetto.dev)\n";
    std::cout << "metrics: " << metrics_path << "\n";
  }
  return consistent ? 0 : 1;
}

/// Selection-only profile over a serialized MVPP.
int profile_file(const std::string& path, const std::string& out_dir,
                 bool as_json) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Json doc = Json::parse(buffer.str());
  const Json& graph_doc =
      doc.kind() == Json::Kind::kObject && !doc.contains("nodes") &&
              doc.contains("graph")
          ? doc.at("graph")
          : doc;
  const Catalog catalog = make_paper_catalog();
  const MvppGraph graph = mvpp_from_json(graph_doc, catalog);

  std::vector<PhaseRow> rows;
  const MvppEvaluator eval(graph);
  SelectionResult selection;
  run_phase(rows, "select-yang",
            [&] { selection = yang_heuristic(eval); });
  run_phase(rows, "select-greedy", [&] { (void)greedy_incremental(eval); });

  const MetricsSnapshot final_snap = MetricsRegistry::global().snapshot();
  const std::string trace_path = out_dir + "/trace.json";
  const std::string metrics_path = out_dir + "/metrics.json";
  write_file(trace_path, Tracer::global().to_chrome_json().dump(2) + "\n");
  write_file(metrics_path, final_snap.to_json().dump(2) + "\n");

  if (as_json) {
    Json out = Json::object();
    out.set("workload", Json::string(path));
    out.set("phases", phases_to_json(rows));
    out.set("trace_file", Json::string(trace_path));
    out.set("metrics_file", Json::string(metrics_path));
    std::cout << out.dump(2) << "\n";
  } else {
    print_phase_table(rows);
    std::cout << "\nselected: " << to_string(graph, selection.materialized)
              << " (total " << format_blocks(selection.costs.total())
              << ")\ntrace:   " << trace_path << "\nmetrics: " << metrics_path
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kPaper, kInput };
  Mode mode = Mode::kPaper;
  std::string input_path;
  std::string out_dir = ".";
  double scale = 0.01;
  // MVD_EXEC_SHARDS selects the sharded layer without touching the
  // command line; --shards overrides it.
  std::size_t shards =
      std::min(default_exec_shards(), ShardedDatabase::kBuckets);
  bool as_json = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--paper") {
      mode = Mode::kPaper;
    } else if (arg == "--input") {
      if (i + 1 >= args.size()) return usage("--input needs a file path");
      mode = Mode::kInput;
      input_path = args[++i];
    } else if (arg == "--scale") {
      if (i + 1 >= args.size()) return usage("--scale needs a number");
      try {
        scale = std::stod(args[++i]);
      } catch (const std::exception&) {
        return usage("bad --scale value '" + args[i] + "'");
      }
      if (!(scale > 0)) return usage("--scale must be positive");
    } else if (arg == "--shards") {
      if (i + 1 >= args.size()) return usage("--shards needs a count");
      try {
        const long n = std::stol(args[++i]);
        if (n < 1 || static_cast<std::size_t>(n) > ShardedDatabase::kBuckets) {
          return usage("--shards must be between 1 and 64");
        }
        shards = static_cast<std::size_t>(n);
      } catch (const std::exception&) {
        return usage("bad --shards value '" + args[i] + "'");
      }
    } else if (arg == "--out") {
      if (i + 1 >= args.size()) return usage("--out needs a directory");
      out_dir = args[++i];
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--exec") {
      // Pick the execution engine for every plan the profile runs —
      // exec.vec spans and exec/vec/* counters only appear under "vec".
      // Same values MVD_EXEC_MODE takes; the flag wins.
      if (i + 1 >= args.size()) return usage("--exec needs row|vec");
      const std::string& engine = args[++i];
      if (engine != "row" && engine != "vec" && engine != "vectorized") {
        return usage("bad --exec value '" + engine + "'");
      }
      ::setenv("MVD_EXEC_MODE", engine.c_str(), 1);
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }

  // Full instrumentation regardless of MVD_TRACE — profiling is the
  // point of this tool.
  set_trace_level(TraceLevel::kSpans);

  try {
    switch (mode) {
      case Mode::kPaper:
        return profile_paper(scale, shards, out_dir, as_json);
      case Mode::kInput:
        return profile_file(input_path, out_dir, as_json);
    }
  } catch (const std::exception& e) {
    std::cerr << "mvprof: " << e.what() << "\n";
    return 2;
  }
  return 2;
}
