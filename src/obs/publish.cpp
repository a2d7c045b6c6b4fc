#include "src/obs/publish.hpp"

#include "src/common/strings.hpp"
#include "src/obs/metrics.hpp"

namespace mvd {

void publish_exec_stats(const ExecStats& stats, const std::string& engine) {
  if (!counters_enabled()) return;
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter(str_cat("exec/", engine, "/runs")).increment();
  reg.counter(str_cat("exec/", engine, "/blocks_read")).add(stats.blocks_read);
  reg.counter(str_cat("exec/", engine, "/rows_scanned"))
      .add(stats.rows_scanned);
  reg.counter(str_cat("exec/", engine, "/batches")).add(stats.batches);
  reg.counter("exec/total/runs").increment();
  reg.counter("exec/total/blocks_read").add(stats.blocks_read);
  reg.counter("exec/total/rows_scanned").add(stats.rows_scanned);
}

void publish_refresh_report(const RefreshReport& report) {
  if (!counters_enabled()) return;
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("maintenance/refresh/rounds").increment();
  reg.counter("maintenance/refresh/views_skipped")
      .add(static_cast<double>(report.count(RefreshPath::kSkipped)));
  reg.counter("maintenance/refresh/views_applied")
      .add(static_cast<double>(report.count(RefreshPath::kApplied)));
  reg.counter("maintenance/refresh/views_group_applied")
      .add(static_cast<double>(report.count(RefreshPath::kGroupApplied)));
  reg.counter("maintenance/refresh/views_recomputed")
      .add(static_cast<double>(report.count(RefreshPath::kRecomputed)));
  reg.counter("maintenance/refresh/delta_rows")
      .add(report.total_delta_rows());
  reg.counter("maintenance/refresh/blocks_read")
      .add(report.total_blocks_read());
}

void publish_selection_ledger(const MvppEvaluator& eval,
                              const MaterializedSet& m) {
  if (!counters_enabled()) return;
  MetricsRegistry& reg = MetricsRegistry::global();
  const MvppGraph& g = eval.graph();

  // Same entry points (and therefore the same floating-point summation
  // order) as SelectionResult::costs — the gauges must reconcile with
  // the reported ledger exactly, not approximately.
  const double qp = eval.query_processing_cost(m);
  const double maint = eval.total_maintenance_cost(m);
  reg.gauge("selection/ledger/query_blocks").set(qp);
  reg.gauge("selection/ledger/maintenance_blocks").set(maint);
  reg.gauge("selection/ledger/total_blocks").set(qp + maint);

  for (NodeId q : eval.closures().query_ids()) {
    const MvppNode& n = g.node(q);
    reg.gauge(str_cat("selection/ledger/query/", n.name))
        .set(n.frequency * eval.answer_cost(q, m));
  }
  for (NodeId v : m) {
    reg.gauge(str_cat("selection/ledger/view/", g.node(v).name))
        .set(eval.maintenance_cost(v, m));
  }
}

void publish_cache_lookup(const std::string& cache, bool hit) {
  if (!counters_enabled()) return;
  MetricsRegistry::global()
      .counter(str_cat("serve/", cache, hit ? "/hits" : "/misses"))
      .increment();
}

void publish_cache_store(const std::string& cache, bool evicted,
                         std::size_t entries) {
  if (!counters_enabled()) return;
  MetricsRegistry& reg = MetricsRegistry::global();
  if (evicted) reg.counter(str_cat("serve/", cache, "/evictions")).increment();
  reg.gauge(str_cat("serve/", cache, "/entries"))
      .set(static_cast<double>(entries));
}

void publish_cache_oversize(const std::string& cache) {
  if (!counters_enabled()) return;
  MetricsRegistry::global()
      .counter(str_cat("serve/", cache, "/oversize"))
      .increment();
}

}  // namespace mvd
