// mvstat — the workload observatory's console.
//
// Renders what the serving warehouse actually saw: top queries by
// observed frequency (cumulative and decayed-window counts), per-view
// hit rates and staleness ages, serve-latency percentiles, and the
// drift of the observed workload against the catalog's declared fq/fu
// annotations.
//
//   mvstat --live            drive the built-in demo traffic over the
//                            paper warehouse, then render its observatory
//                            and the server's template- and shape-cache
//                            counters
//   mvstat --journal FILE    load a JSONL journal (MVD_JOURNAL sink),
//                            replay it, render the reconstruction
//   mvstat --json            machine-readable output instead of tables
//   mvstat --top N           queries shown in the frequency table (10)
//   mvstat --scale S         database scale for --live (default 0.02)
//   mvstat --selftest        replay == live bit-for-bit, the lint rule
//                            catches a tampered journal, JSONL round-trip,
//                            corrupt/truncated-line recovery, drift sanity
//
// Exit status: 0 ok, 1 self-test failure or load error, 2 usage.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/common/strings.hpp"
#include "src/common/text_table.hpp"
#include "src/lint/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/workload.hpp"
#include "src/serve/server.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"

namespace {

using namespace mvd;

int usage(const std::string& problem) {
  std::cerr << "mvstat: " << problem << "\n"
            << "usage: mvstat [--live] [--journal FILE] [--json]\n"
            << "              [--top N] [--scale S] [--selftest]\n";
  return 2;
}

/// The paper warehouse design with every workload query's result
/// materialized (the mvserve demo configuration — every registered query
/// has a covering view).
DesignResult make_design() {
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(make_paper_catalog(), options);
  const PaperExample example = make_paper_example();
  for (const QuerySpec& q : example.queries) designer.add_query(q);
  DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  for (const NodeId q : g.query_ids()) {
    design.selection.materialized.insert(g.node(q).children[0]);
  }
  return design;
}

MvServer make_server(double scale) {
  return MvServer(make_paper_catalog(), make_design(),
                  populate_paper_database(scale));
}

/// Deterministic demo traffic: the workload queries at skewed rates, two
/// ad-hoc probes, an ingest (serving one query while its view is stale)
/// and a refresh.
void drive_demo(MvServer& server) {
  const PaperExample example = make_paper_example();
  for (std::size_t i = 0; i < example.queries.size(); ++i) {
    const std::size_t repeats = example.queries.size() - i;  // skew
    for (std::size_t r = 0; r < repeats; ++r) {
      server.serve(example.queries[i]);
    }
  }
  const std::vector<std::string> adhoc = {
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-01' "
      "AND Order.Cid = Customer.Cid",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 120 AND date > DATE '1996-08-01' "
      "AND Order.Cid = Customer.Cid",  // the same shape: a shape-cache hit
      "SELECT name FROM Division WHERE city = 'LA'",
  };
  for (const std::string& sql : adhoc) server.serve(sql);

  Rng rng(7);
  UpdateStreamOptions updates;
  server.ingest("Order", updates, rng);
  server.serve(example.queries.back());  // falls back: its view is stale
  server.refresh();
  server.serve(example.queries.back());  // hits again
}

// ---- rendering -------------------------------------------------------------

std::string fmt(double v) { return format_fixed(v, 3); }

void render_text(const WorkloadStats& stats, std::size_t top_n) {
  std::cout << "== workload observatory\n"
            << "events: " << stats.events << "  serves: " << stats.serves
            << "  ingests: " << stats.ingests
            << "  refreshes: " << stats.refreshes
            << "  window: " << stats.window << "\n\n";

  struct Ranked {
    const std::string* fp;
    const QueryObservation* q;
  };
  std::vector<Ranked> ranked;
  for (const auto& [fp, q] : stats.queries) ranked.push_back({&fp, &q});
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.q->count != b.q->count) return a.q->count > b.q->count;
    return *a.fp < *b.fp;
  });
  if (ranked.size() > top_n) ranked.resize(top_n);

  std::cout << "-- top queries by observed frequency\n";
  TextTable queries({"id", "query", "count", "windowed", "hits", "misses",
                     "mean ms"},
                    {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight,
                     Align::kRight, Align::kRight, Align::kRight});
  for (const Ranked& r : ranked) {
    const QueryObservation& q = *r.q;
    queries.add_row(
        {fingerprint_id(*r.fp), q.query.empty() ? "(ad hoc)" : q.query,
         std::to_string(q.count),
         fmt(windowed_now(q.windowed, q.windowed_at, stats.serves,
                          stats.window)),
         std::to_string(q.hits), std::to_string(q.misses),
         q.count == 0 ? "-"
                      : fmt(q.latency_ms_sum / static_cast<double>(q.count))});
  }
  std::cout << queries.render() << "\n";

  if (!stats.views.empty()) {
    std::cout << "-- deployed views\n";
    TextTable views({"view", "hits", "refusals", "hit rate", "stale",
                     "staleness age", "pending rows", "stale serves",
                     "refreshes"},
                    {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                     Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                     Align::kRight});
    for (const auto& [name, v] : stats.views) {
      const std::uint64_t consults = v.hits + v.refusals;
      views.add_row(
          {name, std::to_string(v.hits), std::to_string(v.refusals),
           consults == 0 ? "-"
                         : fmt(static_cast<double>(v.hits) /
                               static_cast<double>(consults)),
           v.stale_since_seq.has_value() ? "yes" : "no",
           v.stale_since_seq.has_value()
               ? std::to_string(stats.events - *v.stale_since_seq)
               : "-",
           fmt(v.pending_delta_rows), std::to_string(v.stale_serves_total),
           std::to_string(v.refreshes)});
    }
    std::cout << views.render() << "\n";
  }

  if (stats.latency_count > 0) {
    std::cout << "-- serve latency\n"
              << "count: " << stats.latency_count << "  mean: "
              << fmt(stats.latency_ms_sum /
                     static_cast<double>(stats.latency_count))
              << " ms  p50: "
              << fmt(histogram_percentile(serve_latency_bounds(),
                                          stats.latency_counts,
                                          stats.latency_count, 0.50))
              << " ms  p95: "
              << fmt(histogram_percentile(serve_latency_bounds(),
                                          stats.latency_counts,
                                          stats.latency_count, 0.95))
              << " ms  p99: "
              << fmt(histogram_percentile(serve_latency_bounds(),
                                          stats.latency_counts,
                                          stats.latency_count, 0.99))
              << " ms\n\n";
  }

  const DriftReport drift = compute_drift(stats);
  std::cout << "-- catalog drift (total-variation distance)\n"
            << "fq: " << fmt(drift.fq_distance)
            << "  fu: " << fmt(drift.fu_distance)
            << "  unmatched serves: " << fmt(drift.unmatched_serve_share)
            << "\n";
  if (!drift.queries.empty()) {
    TextTable fq({"query", "declared", "observed"},
                 {Align::kLeft, Align::kRight, Align::kRight});
    for (const DriftEntry& e : drift.queries) {
      fq.add_row({e.name, fmt(e.declared_share), fmt(e.observed_share)});
    }
    std::cout << fq.render();
  }
  if (!drift.relations.empty()) {
    TextTable fu({"relation", "declared", "observed"},
                 {Align::kLeft, Align::kRight, Align::kRight});
    for (const DriftEntry& e : drift.relations) {
      fu.add_row({e.name, fmt(e.declared_share), fmt(e.observed_share)});
    }
    std::cout << fu.render();
  }
}

/// A live server's cache counters; a journal does not carry them, so
/// only --live reports them.
Json cache_json(const CacheStats& cache) {
  Json out = Json::object();
  out.set("hits", Json::number(static_cast<double>(cache.hits)));
  out.set("misses", Json::number(static_cast<double>(cache.misses)));
  out.set("evictions", Json::number(static_cast<double>(cache.evictions)));
  out.set("oversize", Json::number(static_cast<double>(cache.oversize)));
  out.set("entries", Json::number(cache.entries));
  return out;
}

std::string cache_text(const std::string& name, const CacheStats& cache) {
  return "\n== " + name + "\nhits: " + std::to_string(cache.hits) +
         "  misses: " + std::to_string(cache.misses) +
         "  evictions: " + std::to_string(cache.evictions) +
         "  oversize: " + std::to_string(cache.oversize) +
         "  entries: " + std::to_string(cache.entries) + "\n";
}

void render_json(const WorkloadStats& stats, const MvServer* live = nullptr) {
  Json doc = Json::object();
  doc.set("workload", stats.to_json());
  doc.set("drift", compute_drift(stats).to_json());
  Json latency = Json::object();
  latency.set("p50", Json::number(histogram_percentile(
                         serve_latency_bounds(), stats.latency_counts,
                         stats.latency_count, 0.50)));
  latency.set("p95", Json::number(histogram_percentile(
                         serve_latency_bounds(), stats.latency_counts,
                         stats.latency_count, 0.95)));
  latency.set("p99", Json::number(histogram_percentile(
                         serve_latency_bounds(), stats.latency_counts,
                         stats.latency_count, 0.99)));
  doc.set("latency_percentiles", std::move(latency));
  if (live != nullptr) {
    doc.set("template_cache", cache_json(live->template_cache_stats()));
    doc.set("shape_cache", cache_json(live->shape_cache_stats()));
  }
  std::cout << doc.dump(2) << "\n";
}

int run_live(double scale, bool json, std::size_t top_n) {
  MvServer server = make_server(scale);
  drive_demo(server);
  const WorkloadStats stats = server.observatory()->stats();
  if (json) {
    render_json(stats, &server);
  } else {
    render_text(stats, top_n);
    std::cout << cache_text("template cache", server.template_cache_stats())
              << cache_text("shape cache", server.shape_cache_stats());
  }
  return 0;
}

int run_journal(const std::string& path, bool json, std::size_t top_n) {
  try {
    std::size_t corrupt = 0;
    const std::vector<JournalEvent> events =
        EventJournal::load(path, &corrupt);
    if (corrupt > 0) {
      std::cerr << "mvstat: skipped " << corrupt << " corrupt line"
                << (corrupt == 1 ? "" : "s") << " in " << path << "\n";
    }
    const std::unique_ptr<WorkloadObservatory> obs = replay_journal(events);
    const WorkloadStats stats = obs->stats();
    if (json) {
      render_json(stats);
    } else {
      render_text(stats, top_n);
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "mvstat: " << e.what() << "\n";
    return 1;
  }
}

// ---- self-test -------------------------------------------------------------

int selftest() {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& name) {
    std::cout << name << ": " << (ok ? "ok" : "FAIL") << "\n";
    if (!ok) ++failures;
  };

  // 1. Live traffic replays bit-for-bit from the journal.
  const DesignResult design = make_design();
  MvServer server(make_paper_catalog(), design, populate_paper_database(0.02));
  drive_demo(server);
  const WorkloadObservatory& live = *server.observatory();
  const std::vector<JournalEvent> events = live.journal()->events();
  const bool complete = live.journal()->appended() == events.size();
  check(complete, "journal-complete");
  const std::unique_ptr<WorkloadObservatory> replayed =
      replay_journal(events, live.window());
  const std::map<std::string, double> live_gauges = live.stats().to_gauges();
  check(replayed->stats().to_gauges() == live_gauges, "replay-bit-for-bit");

  // 2. The lint rule passes on the honest journal and catches a tamper.
  LintContext ctx;
  ctx.graph = &design.graph();
  LintContext::WorkloadJournalCheck wcheck;
  wcheck.live_gauges = live_gauges;
  wcheck.events = events;
  wcheck.window = live.window();
  ctx.workload = wcheck;
  check(!LintRegistry::builtin().run(ctx).has_errors(), "lint-honest");
  for (JournalEvent& e : ctx.workload->events) {
    if (e.kind == EventKind::kServe) {
      e.latency_ms += 1.0;
      break;
    }
  }
  check(LintRegistry::builtin().run(ctx).has_errors(), "lint-tamper-caught");

  // 3. JSONL round-trip preserves every event exactly.
  const std::string jsonl = EventJournal::to_jsonl(events);
  check(EventJournal::parse_jsonl(jsonl) == events, "jsonl-round-trip");

  // 4. A truncated tail and a corrupt line recover to the intact prefix.
  std::string damaged = jsonl;
  damaged.resize(damaged.size() - damaged.size() / 3);  // torn tail
  std::size_t corrupt = 0;
  const std::vector<JournalEvent> recovered =
      EventJournal::parse_jsonl(damaged + "\n{not json}\n", &corrupt);
  check(corrupt >= 1 && !recovered.empty() && recovered.size() < events.size(),
        "corrupt-line-recovery");
  check(std::equal(recovered.begin(), recovered.end(), events.begin()),
        "recovered-prefix-intact");

  // 5. Drift sanity: distances are within [0,1]; the skewed demo traffic
  // does not match the declared uniform-ish shape exactly.
  const DriftReport drift = live.drift();
  const auto in_range = [](double d) { return d >= 0.0 && d <= 1.0; };
  check(in_range(drift.fq_distance) && in_range(drift.fu_distance) &&
            in_range(drift.unmatched_serve_share),
        "drift-in-range");
  check(!drift.queries.empty() && !drift.relations.empty(), "drift-entries");

  std::cout << (failures == 0 ? "self-test passed"
                              : "self-test FAILED (" +
                                    std::to_string(failures) + " problems)")
            << "\n";
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool live = false;
  bool json = false;
  std::string journal_path;
  std::size_t top_n = 10;
  double scale = 0.02;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--live") {
      live = true;
    } else if (arg == "--journal") {
      if (i + 1 >= args.size()) return usage("--journal needs a file");
      journal_path = args[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--top") {
      if (i + 1 >= args.size()) return usage("--top needs a number");
      try {
        top_n = static_cast<std::size_t>(std::stoul(args[++i]));
      } catch (const std::exception&) {
        return usage("bad --top value");
      }
    } else if (arg == "--scale") {
      if (i + 1 >= args.size()) return usage("--scale needs a number");
      try {
        scale = std::stod(args[++i]);
      } catch (const std::exception&) {
        return usage("bad --scale value");
      }
    } else if (arg == "--selftest") {
      return selftest() == 0 ? 0 : 1;
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }

  if (live && !journal_path.empty()) {
    return usage("--live and --journal are mutually exclusive");
  }

  try {
    if (!journal_path.empty()) return run_journal(journal_path, json, top_n);
    return run_live(scale, json, top_n);  // --live is also the default
  } catch (const std::exception& e) {
    std::cerr << "mvstat: " << e.what() << "\n";
    return 2;
  }
}
