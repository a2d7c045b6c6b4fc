// Bridges from the repo's per-module stat structs into the global
// MetricsRegistry. ExecStats, RefreshReport, the selection cost ledger
// and mvserve's cache lookups keep their existing types and call sites;
// these helpers are the one place that maps them onto registry names, so
// metric naming stays consistent across engines and tools.
//
// Served traffic (serves, hits and fallbacks, per-view refusals, the
// latency histogram) is not published here: the workload observatory
// (src/obs/workload.hpp) is its one record, and it journals and replays
// every tally.
//
// All publishers are no-ops unless counters_enabled() (MVD_TRACE set):
// the cost when tracing is off is one relaxed atomic load.
#pragma once

#include <string>

#include "src/exec/executor.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/mvpp/evaluation.hpp"

namespace mvd {

/// Publish one run's ExecStats under "exec/<engine>/..." plus the
/// engine-agnostic "exec/total/..." counters. `engine` is "row" or
/// "vec".
void publish_exec_stats(const ExecStats& stats, const std::string& engine);

/// Publish one refresh round under "maintenance/refresh/..." — per-path
/// view counts, delta rows, block work.
void publish_refresh_report(const RefreshReport& report);

/// Publish the paper's cost ledger for a chosen materialized set as
/// gauges:
///
///   selection/ledger/query_blocks        Σ fq(qi) · C(M→qi)
///   selection/ledger/maintenance_blocks  Σ fu-factor(vj) · C(L→vj)
///   selection/ledger/total_blocks        their sum
///   selection/ledger/query/<name>        one gauge per query term
///   selection/ledger/view/<name>         one gauge per maintained view
///
/// The totals are computed by the same MvppEvaluator entry points the
/// selection algorithms report (identical summation order), so the
/// gauges equal SelectionResult::costs bit-for-bit — mvlint rule
/// obs/metrics-consistent checks exactly this.
void publish_selection_ledger(const MvppEvaluator& eval,
                              const MaterializedSet& m);

/// Publish one lookup in the mvserve cache `cache` ("template_cache",
/// "shape_cache"): "serve/<cache>/hits" or ".../misses".
void publish_cache_lookup(const std::string& cache, bool hit);

/// Publish one store into the mvserve cache `cache`:
/// "serve/<cache>/evictions" when it evicted an entry, and the cache's
/// size as the "serve/<cache>/entries" gauge.
void publish_cache_store(const std::string& cache, bool evicted,
                         std::size_t entries);

/// Publish one store the mvserve cache `cache` refused for its key's
/// length: "serve/<cache>/oversize".
void publish_cache_oversize(const std::string& cache);

}  // namespace mvd
