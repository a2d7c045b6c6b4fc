#include "src/warehouse/designer.hpp"

#include <sstream>

#include "src/common/error.hpp"
#include "src/common/text_table.hpp"
#include "src/common/units.hpp"
#include "src/exec/sharded.hpp"
#include "src/obs/publish.hpp"
#include "src/obs/trace.hpp"
#include "src/sql/parser.hpp"

namespace mvd {

WarehouseDesigner::WarehouseDesigner(Catalog catalog, DesignerOptions options)
    : catalog_(std::move(catalog)),
      options_(options),
      cost_model_(catalog_, options.cost),
      optimizer_(cost_model_) {}

void WarehouseDesigner::add_query(const std::string& name, double frequency,
                                  const std::string& sql) {
  add_query(parse_and_bind(catalog_, name, frequency, sql));
}

void WarehouseDesigner::add_query(QuerySpec spec) {
  for (const QuerySpec& q : queries_) {
    if (q.name() == spec.name()) {
      throw PlanError("duplicate query name '" + spec.name() + "'");
    }
  }
  queries_.push_back(std::move(spec));
}

SelectionAlgorithm WarehouseDesigner::selection_algorithm() const {
  switch (options_.algorithm) {
    case DesignerOptions::Algorithm::kYang:
      return [](const MvppEvaluator& e) { return yang_heuristic(e); };
    case DesignerOptions::Algorithm::kGreedy:
      return [](const MvppEvaluator& e) { return greedy_incremental(e); };
    case DesignerOptions::Algorithm::kExhaustive: {
      const std::size_t limit = options_.exhaustive_limit;
      return [limit](const MvppEvaluator& e) {
        return exhaustive_optimal(e, limit);
      };
    }
    case DesignerOptions::Algorithm::kAnnealing: {
      const AnnealingOptions annealing = options_.annealing;
      return [annealing](const MvppEvaluator& e) {
        return simulated_annealing(e, annealing);
      };
    }
  }
  throw PlanError("unknown selection algorithm");
}

DesignResult WarehouseDesigner::design() const {
  if (queries_.empty()) {
    throw PlanError("no queries registered; add_query first");
  }
  MVD_TRACE_SPAN("warehouse", "design");
  MvppBuilder builder(optimizer_);
  DesignResult result;
  result.candidates = builder.build_all_rotations(queries_);
  MvppChoice choice = choose_best_mvpp(result.candidates, options_.maintenance,
                                       selection_algorithm());
  result.mvpp_index = choice.index;
  result.selection = std::move(choice.selection);
  // The chosen design's cost ledger, as gauges — the numbers mvlint's
  // obs/metrics-consistent rule reconciles against the SelectionResult.
  if (counters_enabled()) {
    const MvppEvaluator eval(result.graph(), options_.maintenance);
    publish_selection_ledger(eval, result.selection.materialized);
  }
  return result;
}

std::string WarehouseDesigner::report(const DesignResult& design) const {
  const MvppGraph& g = design.graph();
  MvppEvaluator eval(g, options_.maintenance);
  std::ostringstream os;
  os << "=== materialized view design ===\n";
  os << "queries: " << queries_.size() << ", candidate MVPPs: "
     << design.candidates.size() << ", winner: #" << design.mvpp_index
     << " (merge order ";
  for (std::size_t i = 0;
       i < design.candidates[design.mvpp_index].merge_order.size(); ++i) {
    if (i != 0) os << " ";
    os << design.candidates[design.mvpp_index].merge_order[i];
  }
  os << ")\n\n" << g.to_text() << '\n';

  TextTable table({"strategy", "materialized", "query cost", "maintenance",
                   "total"},
                  {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight});
  auto row = [&](const SelectionResult& r) {
    table.add_row({r.algorithm, to_string(g, r.materialized),
                   format_blocks(r.costs.query_processing),
                   format_blocks(r.costs.maintenance),
                   format_blocks(r.costs.total())});
  };
  row(select_nothing(eval));
  row(select_all_query_results(eval));
  row(select_all_operations(eval));
  row(design.selection);
  os << table.render();
  return os.str();
}

void deploy_view(const MvppGraph& graph, NodeId v, const MaterializedSet& m,
                 Database& db, ExecMode mode, std::size_t threads,
                 ExecStats* stats) {
  const std::string& name = graph.node(v).name;
  TraceSpan span("warehouse", "deploy-view");
  const PlanPtr plan = refresh_plan(graph, v, m);
  const Executor exec(db, mode, threads);
  Table view = exec.run(plan, stats);
  const auto rows = static_cast<double>(view.row_count());

  // Co-partition the view with its partitioned leaf when every row
  // carries the leaf's key (ambiguous in the view schema counts as lost).
  std::string key;
  const ShardPlanAnalysis a = analyze_shard_plan(plan, db);
  if (a.refs == 1 && a.spine_aggregate == nullptr) {
    const std::string& leaf_key = *db.partition_key(a.leaf->relation());
    try {
      if (view.schema().find(leaf_key).has_value()) key = leaf_key;
    } catch (const BindError&) {
      // Ambiguous in the view schema: the key is lost.
    }
  }
  db.put_table(name, std::move(view));  // a redeploy keeps the layout
  if (!key.empty() && !db.is_partitioned(name)) db.partition(name, key);

  if (span.active()) {
    span.arg("view", name);
    span.arg("rows", rows);
  }
  if (counters_enabled()) {
    MetricsRegistry::global().counter("warehouse/deploy/views").increment();
    MetricsRegistry::global().counter("warehouse/deploy/rows").add(rows);
  }
  if (stats != nullptr) stats->rows_out[name] = rows;
  record_shard_rows(db, name, stats);
}

void WarehouseDesigner::deploy(const DesignResult& design, Database& db,
                               ExecStats* stats) const {
  MVD_TRACE_SPAN("warehouse", "deploy");
  // Node ids ascend topologically, so iterating the ordered set stores
  // every view after the views it reads.
  for (NodeId v : design.selection.materialized) {
    deploy_view(design.graph(), v, design.selection.materialized, db,
                default_exec_mode(), default_exec_threads(), stats);
  }
}

void WarehouseDesigner::refresh(const DesignResult& design, Database& db,
                                ExecStats* stats) const {
  // Recompute-and-replace is the paper's maintenance discipline.
  deploy(design, db, stats);
}

RefreshReport WarehouseDesigner::refresh(const DesignResult& design,
                                         Database& db,
                                         const DeltaSet& base_deltas,
                                         RefreshMode mode,
                                         ExecStats* stats) const {
  const MvppGraph& g = design.graph();
  RefreshReport report;
  if (mode == RefreshMode::kIncremental) {
    report = incremental_refresh(g, design.selection.materialized, db,
                                 base_deltas, stats);
  } else {
    MVD_TRACE_SPAN("maintenance", "recompute-refresh");
    deploy(design, db, stats);
    for (NodeId v : design.selection.materialized) {
      ViewRefresh entry;
      entry.id = v;
      entry.view = g.node(v).name;
      entry.path = RefreshPath::kRecomputed;
      entry.stored_rows =
          static_cast<double>(db.table(entry.view).row_count());
      report.views.push_back(std::move(entry));
    }
    publish_refresh_report(report);
  }
  return report;
}

Table WarehouseDesigner::answer(const DesignResult& design,
                                const std::string& query_name,
                                const Database& db, ExecStats* stats) const {
  const MvppGraph& g = design.graph();
  const NodeId q = g.find_by_name(query_name);
  if (q < 0 || g.node(q).kind != MvppNodeKind::kQuery) {
    throw PlanError("unknown query '" + query_name + "'");
  }
  TraceSpan span("warehouse", "answer");
  span.arg("query", query_name);
  if (counters_enabled()) {
    MetricsRegistry::global().counter("warehouse/answer/queries").increment();
  }
  const Executor exec(db);
  return exec.run(answer_plan(g, q, design.selection.materialized), stats);
}

}  // namespace mvd
