// Ext-E: row vs vectorized execution engine.
//
// Runs each operator (scan, select, project, hash join, aggregate) and an
// end-to-end star join + aggregate workload under both engines, reporting
// rows/sec per operator and the end-to-end speedup at one and four
// threads, plus a select-chain section (stacked select/project segments
// and a select->join-probe pipeline) timing the vectorized engine at one
// and four threads with a geomean throughput. Everything is written to
// BENCH_exec.json.
//
// Also measures Ext-K, the observability tax: the per-site cost of the
// disabled instrumentation guards (MVD_TRACE=off) extrapolated over the
// number of sites the end-to-end workload actually exercises, asserted
// under 1% of the end-to-end runtime. A regression here fails the bench
// (nonzero exit), which CI runs in --smoke mode.
//
// `--smoke` shrinks the dataset and repetitions for CI.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "src/common/text_table.hpp"
#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/exec/executor.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/workload/generator.hpp"

using namespace mvd;

namespace {

double best_run_secs(const Executor& exec, const PlanPtr& plan, int reps,
                     std::size_t* rows_out = nullptr) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Table out = exec.run(plan);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    if (rows_out != nullptr) *rows_out = out.row_count();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int reps = smoke ? 2 : 5;

  StarSchemaOptions schema;
  schema.dimensions = 4;
  schema.fact_rows = smoke ? 20'000 : 400'000;
  schema.dimension_rows = smoke ? 1'000 : 5'000;
  const Database db = populate_star_database(schema, 2026);
  const Catalog catalog = catalog_from_database(db, 10.0);

  const Executor row(db, ExecMode::kRow);
  const Executor vec1(db, ExecMode::kVectorized, 1);
  const Executor vec4(db, ExecMode::kVectorized, 4);

  Json report = Json::object();
  report.set("bench", Json::string("exec_engine"));
  report.set("smoke", Json::boolean(smoke));
  // Thread scaling is only meaningful with >= 4 cores; on smaller
  // machines the 4-thread numbers measure pure overhead.
  report.set("hardware_threads",
             Json::number(static_cast<std::size_t>(
                 std::thread::hardware_concurrency())));
  Json workload = Json::object();
  workload.set("fact_rows", Json::number(schema.fact_rows));
  workload.set("dimension_rows", Json::number(schema.dimension_rows));
  workload.set("dimensions", Json::number(schema.dimensions));
  report.set("workload", workload);

  std::cout << "Ext-E — row vs vectorized engine ("
            << schema.fact_rows << " fact rows" << (smoke ? ", smoke" : "")
            << ")\n\n";

  // ---- Per-operator throughput ---------------------------------------
  struct OpCase {
    const char* name;
    PlanPtr plan;
    std::size_t input_rows;
  };
  const PlanPtr fact = make_scan(catalog, "Fact");
  const std::vector<OpCase> cases = {
      {"scan", fact, schema.fact_rows},
      {"select", make_select(fact, gt(col("Fact.measure"), lit_i64(500))),
       schema.fact_rows},
      {"project", make_project(fact, {"Fact.d0", "Fact.measure"}),
       schema.fact_rows},
      {"hash_join",
       make_join(fact, make_scan(catalog, "Dim0"),
                 eq(col("Fact.d0"), col("Dim0.id"))),
       schema.fact_rows + schema.dimension_rows},
      {"aggregate",
       make_aggregate(fact, {"Fact.d0"},
                      {AggSpec{AggFn::kSum, "Fact.measure", ""},
                       AggSpec{AggFn::kCount, "", ""}}),
       schema.fact_rows},
  };

  TextTable ops_table({"operator", "row rows/s", "vec rows/s", "vec/row"},
                      {Align::kLeft, Align::kRight, Align::kRight,
                       Align::kRight});
  Json operators = Json::array();
  for (const OpCase& c : cases) {
    const double row_secs = best_run_secs(row, c.plan, reps);
    const double vec_secs = best_run_secs(vec1, c.plan, reps);
    const double rows = static_cast<double>(c.input_rows);
    Json j = Json::object();
    j.set("operator", Json::string(c.name));
    j.set("input_rows", Json::number(rows));
    j.set("row_secs", Json::number(row_secs));
    j.set("vectorized_secs", Json::number(vec_secs));
    j.set("row_rows_per_sec", Json::number(rows / row_secs));
    j.set("vectorized_rows_per_sec", Json::number(rows / vec_secs));
    j.set("speedup", Json::number(row_secs / vec_secs));
    operators.push_back(std::move(j));
    ops_table.add_row({c.name, format_fixed(rows / row_secs, 0),
                       format_fixed(rows / vec_secs, 0),
                       format_fixed(row_secs / vec_secs, 2) + "x"});
  }
  report.set("operators", std::move(operators));
  std::cout << ops_table.render() << '\n';

  // ---- Select chains --------------------------------------------------
  // Stacked selects (conjuncts over int/double/string columns),
  // select->project segments, and a select->join-probe pipeline.
  // Predicates are selective (~1-5% survivors) so the timings measure
  // scan/filter/probe throughput rather than the result-materialization
  // cost. Reported as vectorized rows/sec at one and four threads plus
  // their geomean over the four plans.
  const std::int64_t d_sel =
      static_cast<std::int64_t>(schema.dimension_rows / 20);
  const std::vector<OpCase> chains = {
      {"select3_conj",
       make_select(fact, conj({gt(col("Fact.measure"), lit_i64(950)),
                               lt(col("Fact.d0"), lit_i64(d_sel)),
                               cmp(CompareOp::kNe, col("Fact.d1"),
                                   lit_i64(7))})),
       schema.fact_rows},
      {"select_select_project",
       make_project(
           make_select(make_select(fact, gt(col("Fact.measure"),
                                            lit_i64(950))),
                       lt(col("Fact.measure"), lit_i64(955))),
           {"Fact.d0", "Fact.measure"}),
       schema.fact_rows},
      {"project_select_remap",
       make_select(make_project(fact, {"Fact.d1", "Fact.measure"}),
                   gt(col("Fact.measure"), lit_i64(995))),
       schema.fact_rows},
      {"select_join_probe",
       make_join(make_select(fact, gt(col("Fact.measure"), lit_i64(995))),
                 make_scan(catalog, "Dim0"),
                 eq(col("Fact.d0"), col("Dim0.id"))),
       schema.fact_rows + schema.dimension_rows},
  };

  TextTable chain_table({"chain", "vec 1t rows/s", "vec 4t rows/s",
                         "4t/1t"},
                        {Align::kLeft, Align::kRight, Align::kRight,
                         Align::kRight});
  Json chain_json = Json::array();
  double log_rate_1t = 0, log_rate_4t = 0;
  // The chain runs are short (selective predicates, small outputs), so
  // take the best of more repetitions to damp scheduler noise.
  const int chain_reps = smoke ? 3 : 9;
  for (const OpCase& c : chains) {
    const double vec1_secs = best_run_secs(vec1, c.plan, chain_reps);
    const double vec4_secs = best_run_secs(vec4, c.plan, chain_reps);
    const double rows = static_cast<double>(c.input_rows);
    log_rate_1t += std::log(rows / vec1_secs);
    log_rate_4t += std::log(rows / vec4_secs);
    Json j = Json::object();
    j.set("chain", Json::string(c.name));
    j.set("input_rows", Json::number(rows));
    j.set("vectorized_1t_secs", Json::number(vec1_secs));
    j.set("vectorized_4t_secs", Json::number(vec4_secs));
    j.set("vectorized_1t_rows_per_sec", Json::number(rows / vec1_secs));
    j.set("vectorized_4t_rows_per_sec", Json::number(rows / vec4_secs));
    j.set("thread_scaling_4t", Json::number(vec1_secs / vec4_secs));
    chain_json.push_back(std::move(j));
    chain_table.add_row({c.name, format_fixed(rows / vec1_secs, 0),
                         format_fixed(rows / vec4_secs, 0),
                         format_fixed(vec1_secs / vec4_secs, 2) + "x"});
  }
  const double nchains = static_cast<double>(chains.size());
  const double geomean_1t = std::exp(log_rate_1t / nchains);
  const double geomean_4t = std::exp(log_rate_4t / nchains);
  Json chains_section = Json::object();
  chains_section.set("cases", std::move(chain_json));
  chains_section.set("geomean_rows_per_sec_1t", Json::number(geomean_1t));
  chains_section.set("geomean_rows_per_sec_4t", Json::number(geomean_4t));
  report.set("select_chains", std::move(chains_section));
  std::cout << "select chains (vectorized):\n"
            << chain_table.render() << "  geomean: "
            << format_fixed(geomean_1t, 0) << " rows/s (1t), "
            << format_fixed(geomean_4t, 0) << " rows/s (4t)\n\n";

  // ---- End-to-end join + aggregate workload --------------------------
  // The generator's large rollup shape: fact joined through two
  // dimensions with a category selection, grouped on a dimension
  // category with SUM + COUNT.
  const PlanPtr e2e = make_aggregate(
      make_select(
          make_join(make_join(fact, make_scan(catalog, "Dim0"),
                              eq(col("Fact.d0"), col("Dim0.id"))),
                    make_scan(catalog, "Dim1"),
                    eq(col("Fact.d1"), col("Dim1.id"))),
          gt(col("Fact.measure"), lit_i64(200))),
      {"Dim0.category"},
      {AggSpec{AggFn::kSum, "Fact.measure", ""},
       AggSpec{AggFn::kCount, "", ""}});

  std::size_t rows_row = 0;
  const double row_secs = best_run_secs(row, e2e, reps, &rows_row);
  const double vec1_secs = best_run_secs(vec1, e2e, reps);
  const double vec4_secs = best_run_secs(vec4, e2e, reps);
  const Table e2e_vec1 = vec1.run(e2e);
  const Table e2e_vec4 = vec4.run(e2e);
  // The vectorized engine must match itself bit for bit across thread
  // counts, row order included, and the row engine as a bag.
  bool threads_identical = e2e_vec1.row_count() == e2e_vec4.row_count();
  for (std::size_t i = 0; threads_identical && i < e2e_vec1.row_count();
       ++i) {
    threads_identical = e2e_vec1.row(i) == e2e_vec4.row(i);
  }
  const bool agree = same_bag(row.run(e2e), e2e_vec1) && threads_identical;

  Json e2e_json = Json::object();
  e2e_json.set("description",
               Json::string("Fact |x| Dim0 |x| Dim1, measure filter, "
                            "GROUP BY Dim0.category, SUM + COUNT"));
  e2e_json.set("row_secs", Json::number(row_secs));
  e2e_json.set("vectorized_1t_secs", Json::number(vec1_secs));
  e2e_json.set("vectorized_4t_secs", Json::number(vec4_secs));
  e2e_json.set("speedup_1t", Json::number(row_secs / vec1_secs));
  e2e_json.set("speedup_4t", Json::number(row_secs / vec4_secs));
  e2e_json.set("thread_scaling_4t", Json::number(vec1_secs / vec4_secs));
  e2e_json.set("same_bag", Json::boolean(agree));
  e2e_json.set("output_rows", Json::number(rows_row));
  report.set("end_to_end", std::move(e2e_json));

  std::cout << "end-to-end join+aggregate:\n"
            << "  row engine:        " << format_fixed(row_secs * 1e3, 1)
            << " ms\n"
            << "  vectorized (1t):   " << format_fixed(vec1_secs * 1e3, 1)
            << " ms  (" << format_fixed(row_secs / vec1_secs, 2) << "x)\n"
            << "  vectorized (4t):   " << format_fixed(vec4_secs * 1e3, 1)
            << " ms  (" << format_fixed(row_secs / vec4_secs, 2) << "x, "
            << format_fixed(vec1_secs / vec4_secs, 2) << "x over 1t)\n"
            << "  results agree:     " << (agree ? "yes" : "NO") << "\n\n";

  // ---- Ext-K: observability overhead when tracing is off -------------
  // Every instrumentation site left in the binary costs one relaxed
  // atomic load + branch when MVD_TRACE=off. Measure that guard directly,
  // count how many sites one end-to-end run exercises (spans-on run),
  // and bound the off-state tax as guard_cost x sites / runtime.
  set_trace_level(TraceLevel::kOff);
  constexpr int kGuardIters = 2'000'000;
  std::size_t guard_hits = 0;
  const auto g0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kGuardIters; ++i) {
    TraceSpan span("bench", "guard");   // disabled span: one load + branch
    if (counters_enabled()) ++guard_hits;  // disabled counter guard
    guard_hits += span.active() ? 1 : 0;
  }
  const auto g1 = std::chrono::steady_clock::now();
  const double guard_ns =
      std::chrono::duration<double, std::nano>(g1 - g0).count() /
      kGuardIters;

  set_trace_level(TraceLevel::kSpans);
  Tracer::global().clear();
  const std::size_t row_ev0 = Tracer::global().event_count();
  (void)row.run(e2e);
  const std::size_t row_events = Tracer::global().event_count() - row_ev0;
  const std::size_t vec_ev0 = Tracer::global().event_count();
  (void)vec4.run(e2e);
  const std::size_t vec_events = Tracer::global().event_count() - vec_ev0;
  Tracer::global().clear();
  set_trace_level(std::nullopt);

  // The spans-on event count undercounts guard executions (counter-only
  // sites don't record events), so pad by 4x before comparing against
  // the 1% budget — the bound stays conservative.
  const double kSiteFudge = 4.0;
  const double row_overhead =
      static_cast<double>(row_events) * kSiteFudge * guard_ns * 1e-9 /
      row_secs;
  const double vec_overhead =
      static_cast<double>(vec_events) * kSiteFudge * guard_ns * 1e-9 /
      vec4_secs;
  const double worst_overhead = std::max(row_overhead, vec_overhead);
  const double kOverheadLimit = 0.01;
  const bool overhead_ok = worst_overhead <= kOverheadLimit;

  Json obs = Json::object();
  obs.set("guard_ns_per_site", Json::number(guard_ns));
  obs.set("row_trace_events", Json::number(row_events));
  obs.set("vectorized_trace_events", Json::number(vec_events));
  obs.set("site_fudge_factor", Json::number(kSiteFudge));
  obs.set("row_overhead_fraction", Json::number(row_overhead));
  obs.set("vectorized_overhead_fraction", Json::number(vec_overhead));
  obs.set("limit_fraction", Json::number(kOverheadLimit));
  obs.set("within_limit", Json::boolean(overhead_ok));
  report.set("tracing_overhead", std::move(obs));

  std::cout << "tracing overhead (MVD_TRACE=off):\n"
            << "  guard cost:        " << format_fixed(guard_ns, 2)
            << " ns/site\n"
            << "  sites per e2e run: " << row_events << " (row), "
            << vec_events << " (vec)\n"
            << "  worst-case tax:    "
            << format_fixed(worst_overhead * 100, 4) << "% of runtime "
            << "(limit " << format_fixed(kOverheadLimit * 100, 1) << "%) "
            << (overhead_ok ? "ok" : "EXCEEDED") << "\n\n";

  std::ofstream out("BENCH_exec.json");
  out << report.dump(2) << '\n';
  std::cout << "wrote BENCH_exec.json\n";
  return (agree && overhead_ok) ? 0 : 1;
}
