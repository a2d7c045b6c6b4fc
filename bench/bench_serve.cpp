// Ext-O: mvserve throughput — transparent rewriting under concurrency.
//
// Deploys the paper warehouse with every workload query's result node
// materialized, then drives a fixed ad-hoc query mix (the four workload
// queries, residual variants answerable from their views, and uncovered
// queries that must fall back) from 1 / 4 / 16 / 64 client threads.
// Each thread count is measured twice — rewriting enabled and forced
// base-only — so the table reports the rewrite win directly; rows with
// more threads than the host has are marked "oversubscribed" (they
// measure contention, not scaling). The template cache's hit ratio over
// those runs is reported. A snapshot-churn section keeps 4 readers
// serving while a writer loops update_and_refresh, measuring read
// throughput under snapshot churn, and a concurrent section reports QPS
// with the workload observatory on vs off at hardware_threads clients.
// A text section serves the mix's shapes as SQL text with fresh literals
// (serve(sql), through the shape cache) against the same text parsed and
// bound per request and against requests bound beforehand (serve_on), and
// prices the shape cache's miss path (a stream of distinct shapes)
// against plain parse_adhoc; it is reported, not gated.
//
// Gates (nonzero exit):
//   * every covered query in the mix must actually rewrite — the hit
//     rate must reach the mix's coverable fraction, which itself covers
//     the full registered paper workload;
//   * per mix entry, the rewritten answer must be bag-equal to the
//     base-table answer;
//   * the workload observatory's serve-path overhead — its per-serve
//     record() cost measured over a tight loop, bounded against the
//     measured mean serve time — must stay under 1% (wall-clock on/off
//     serve loops are reported alongside as context).
//
// Everything is written to BENCH_serve.json. `--smoke` shrinks the data
// and per-thread query counts for CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/random.hpp"
#include "src/common/strings.hpp"
#include "src/common/text_table.hpp"
#include "src/exec/executor.hpp"
#include "src/serve/server.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"

using namespace mvd;

namespace {

struct MixEntry {
  QuerySpec query;
  bool coverable;
};

MvServer make_server(double scale, ServeOptions serve_options = {}) {
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
  return MvServer(example.catalog, design, populate_paper_database(scale),
                  serve_options);
}

std::vector<MixEntry> make_mix(const Catalog& catalog) {
  std::vector<MixEntry> mix;
  for (const QuerySpec& q : make_paper_example().queries) {
    mix.push_back({q, true});
  }
  // Residual compensation on the Q4 and Q1 views.
  mix.push_back({parse_adhoc(catalog,
                             "SELECT Customer.city, date "
                             "FROM Order, Customer "
                             "WHERE quantity > 100 "
                             "AND date > DATE '1996-07-01' "
                             "AND Order.Cid = Customer.Cid"),
                 true});
  mix.push_back({parse_adhoc(catalog,
                             "SELECT Product.name FROM Product, Division "
                             "WHERE Product.Did = Division.Did "
                             "AND city = 'LA' AND Product.Did > 0"),
                 true});
  // Uncovered: no deployed view has these relation sets.
  mix.push_back(
      {parse_adhoc(catalog, "SELECT name FROM Division WHERE city = 'LA'"),
       false});
  mix.push_back(
      {parse_adhoc(catalog,
                   "SELECT Customer.name FROM Customer WHERE Cid < 100"),
       false});
  return mix;
}

struct Throughput {
  int threads = 0;
  std::size_t queries = 0;
  double secs = 0;
  double qps = 0;
  double hit_rate = 0;
};

/// The mix's shapes as SQL text, each request with fresh literals: the
/// residual and uncovered entries (make_mix's entries 4-7) vary their
/// literal, the registered queries repeat theirs.
std::vector<std::string> text_stream(const std::vector<MixEntry>& mix,
                                     std::size_t n) {
  Rng rng(11);
  std::vector<std::string> texts;
  texts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % mix.size()) {
      case 4:
        texts.push_back(
            "SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 100 AND date > DATE '1996-07-" +
            std::to_string(10 + rng.uniform_int(0, 18)) +
            "' AND Order.Cid = Customer.Cid");
        break;
      case 5:
        texts.push_back(
            "SELECT Product.name FROM Product, Division "
            "WHERE Product.Did = Division.Did AND city = 'LA' "
            "AND Product.Did > " +
            std::to_string(rng.uniform_int(0, 9)));
        break;
      case 6:
        texts.push_back("SELECT name FROM Division WHERE city = 'city_" +
                        std::to_string(rng.uniform_int(0, 49)) + "'");
        break;
      case 7:
        texts.push_back("SELECT Customer.name FROM Customer WHERE Cid < " +
                        std::to_string(rng.uniform_int(1, 200)));
        break;
      default:
        texts.push_back(mix[i % mix.size()].query.to_sql());
    }
  }
  return texts;
}

Throughput drive(const MvServer& server, const std::vector<MixEntry>& mix,
                 int threads, std::size_t per_thread, ServePath path) {
  std::atomic<std::size_t> hits{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::size_t local_hits = 0;
      for (std::size_t i = 0; i < per_thread; ++i) {
        const MixEntry& entry =
            mix[(static_cast<std::size_t>(t) + i) % mix.size()];
        const ServeResult r =
            server.serve_on(server.snapshot(), entry.query, path);
        if (r.rewritten) ++local_hits;
      }
      hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
  }
  for (std::thread& c : clients) c.join();
  const auto t1 = std::chrono::steady_clock::now();

  Throughput out;
  out.threads = threads;
  out.queries = static_cast<std::size_t>(threads) * per_thread;
  out.secs = std::chrono::duration<double>(t1 - t0).count();
  out.qps = static_cast<double>(out.queries) / out.secs;
  out.hit_rate =
      static_cast<double>(hits.load()) / static_cast<double>(out.queries);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const double scale = smoke ? 0.02 : 0.1;
  const std::size_t per_thread = smoke ? 50 : 300;

  MvServer server = make_server(scale);
  const std::vector<MixEntry> mix = make_mix(server.catalog());
  const double coverable_fraction =
      static_cast<double>(std::count_if(mix.begin(), mix.end(),
                                        [](const MixEntry& e) {
                                          return e.coverable;
                                        })) /
      static_cast<double>(mix.size());

  // Correctness gate first: per mix entry, rewrite-vs-base agreement and
  // the expected route.
  bool agree = true;
  double expected_hits = 0;
  {
    const auto snap = server.snapshot();
    for (const MixEntry& entry : mix) {
      const ServeResult hit = server.serve_on(snap, entry.query);
      const ServeResult base =
          server.serve_on(snap, entry.query, ServePath::kBaseOnly);
      if (!same_bag(hit.table, base.table)) {
        std::cerr << "MISMATCH: " << entry.query.name()
                  << " rewritten != base\n";
        agree = false;
      }
      if (hit.rewritten != entry.coverable) {
        std::cerr << "ROUTE: " << entry.query.name() << " expected "
                  << (entry.coverable ? "rewrite" : "fallback") << ", got "
                  << (hit.rewritten ? "view " + hit.view : "fallback")
                  << "\n";
        agree = false;
      }
      if (hit.rewritten) ++expected_hits;
    }
  }

  Json report = Json::object();
  report.set("bench", Json::string("serve"));
  report.set("smoke", Json::boolean(smoke));
  report.set("hardware_threads",
             Json::number(static_cast<std::size_t>(
                 std::thread::hardware_concurrency())));
  report.set("scale", Json::number(scale));
  report.set("mix_size", Json::number(mix.size()));
  report.set("mix_coverable_fraction", Json::number(coverable_fraction));

  const int hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  TextTable table({"threads", "queries", "rewrite q/s", "base q/s",
                   "speedup", "hit rate"});
  Json scaling = Json::array();
  bool hit_rate_ok = true;
  for (const int threads : {1, 4, 16, 64}) {
    const bool oversubscribed = threads > hardware_threads;
    const Throughput rewrite =
        drive(server, mix, threads, per_thread, ServePath::kAuto);
    const Throughput base =
        drive(server, mix, threads, per_thread, ServePath::kBaseOnly);
    // Every coverable query must hit: the stream hit rate equals the
    // coverable fraction, which covers the whole registered workload.
    hit_rate_ok = hit_rate_ok && rewrite.hit_rate >= coverable_fraction - 1e-9;

    table.add_row({std::to_string(threads) + (oversubscribed ? "*" : ""),
                   std::to_string(rewrite.queries),
                   format_fixed(rewrite.qps, 0), format_fixed(base.qps, 0),
                   format_fixed(rewrite.qps / base.qps, 2),
                   format_fixed(rewrite.hit_rate, 3)});
    Json row = Json::object();
    row.set("threads", Json::number(threads));
    row.set("queries", Json::number(rewrite.queries));
    row.set("rewrite_secs", Json::number(rewrite.secs));
    row.set("rewrite_qps", Json::number(rewrite.qps));
    row.set("base_secs", Json::number(base.secs));
    row.set("base_qps", Json::number(base.qps));
    row.set("speedup", Json::number(rewrite.qps / base.qps));
    row.set("hit_rate", Json::number(rewrite.hit_rate));
    row.set("oversubscribed", Json::boolean(oversubscribed));
    scaling.push_back(std::move(row));
  }
  report.set("scaling", std::move(scaling));
  std::cout << "mvserve throughput (paper warehouse, scale "
            << format_fixed(scale, 2) << ", mix of " << mix.size()
            << " queries; * = more threads than the host's "
            << hardware_threads << "):\n"
            << table.render() << "\n";

  // Every request of the mix repeats one of its templates, so after the
  // first serve of each the matcher should not run again.
  {
    const CacheStats cache = server.template_cache_stats();
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    const double ratio =
        lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
    Json tc = Json::object();
    tc.set("hits", Json::number(static_cast<double>(cache.hits)));
    tc.set("misses", Json::number(static_cast<double>(cache.misses)));
    tc.set("evictions", Json::number(static_cast<double>(cache.evictions)));
    tc.set("entries", Json::number(cache.entries));
    tc.set("hit_ratio", Json::number(ratio));
    report.set("template_cache", std::move(tc));
    std::cout << "template cache: " << cache.hits << " hits, "
              << cache.misses << " misses (hit ratio "
              << format_fixed(ratio, 4) << "), " << cache.entries
              << " entries\n";
  }

  // Serving SQL text: the mix's shapes with fresh literals through
  // serve(sql), against the same text parsed and bound per request
  // (parse_adhoc + serve_on, the path without the shape cache) and the
  // same requests bound beforehand (serve_on alone); rotating passes, best
  // of three each. Then a stream of distinct shapes, every request a
  // shape-cache miss, through bind() against plain parse_adhoc.
  {
    const std::size_t n = smoke ? 2'000 : 20'000;
    const std::vector<std::string> texts = text_stream(mix, n);
    std::vector<QuerySpec> bound;
    bound.reserve(n);
    for (const std::string& sql : texts) {
      bound.push_back(parse_adhoc(server.catalog(), sql));
    }
    for (const std::string& sql : texts) server.serve(sql);  // warm-up
    const auto seconds = [](auto&& body) {
      const auto t0 = std::chrono::steady_clock::now();
      body();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    double spec_secs = 1e300;
    double text_secs = 1e300;
    double parsed_secs = 1e300;
    const CacheStats before = server.shape_cache_stats();
    for (int rep = 0; rep < 3; ++rep) {
      spec_secs = std::min(spec_secs, seconds([&] {
                             for (const QuerySpec& q : bound) {
                               server.serve_on(server.snapshot(), q);
                             }
                           }));
      text_secs = std::min(text_secs, seconds([&] {
                             for (const std::string& sql : texts) {
                               server.serve(sql);
                             }
                           }));
      parsed_secs = std::min(parsed_secs, seconds([&] {
                               for (const std::string& sql : texts) {
                                 server.serve_on(
                                     server.snapshot(),
                                     parse_adhoc(server.catalog(), sql));
                               }
                             }));
    }
    const CacheStats after = server.shape_cache_stats();
    const double lookups =
        static_cast<double>((after.hits - before.hits) +
                            (after.misses - before.misses));
    const double hit_ratio =
        static_cast<double>(after.hits - before.hits) / lookups;
    const double per = static_cast<double>(n);

    // Distinct shapes: each alias is a new text shape.
    const std::size_t unique_n = smoke ? 2'000 : 10'000;
    std::vector<std::string> unique;
    unique.reserve(unique_n);
    for (std::size_t i = 0; i < unique_n; ++i) {
      unique.push_back("SELECT Customer.city, count(*) AS c" +
                       std::to_string(i) +
                       " FROM Order, Customer WHERE quantity > 100 "
                       "AND Order.Cid = Customer.Cid GROUP BY Customer.city");
    }
    const CacheStats miss_before = server.shape_cache_stats();
    const double miss_secs = seconds([&] {
      for (const std::string& sql : unique) server.bind(sql);
    });
    const CacheStats miss_after = server.shape_cache_stats();
    const double adhoc_secs = seconds([&] {
      for (const std::string& sql : unique) parse_adhoc(server.catalog(), sql);
    });
    const double unique_per = static_cast<double>(unique_n);

    Json text = Json::object();
    text.set("requests", Json::number(n));
    text.set("shape_hit_ratio", Json::number(hit_ratio));
    text.set("serve_sql_qps", Json::number(per / text_secs));
    text.set("serve_on_qps", Json::number(per / spec_secs));
    text.set("sql_over_spec", Json::number(spec_secs / text_secs));
    text.set("serve_sql_us", Json::number(text_secs / per * 1e6));
    text.set("parse_adhoc_serve_on_us",
             Json::number(parsed_secs / per * 1e6));
    text.set("serve_on_us", Json::number(spec_secs / per * 1e6));
    Json misses = Json::object();
    misses.set("requests", Json::number(unique_n));
    misses.set("shape_misses", Json::number(static_cast<double>(
                                   miss_after.misses - miss_before.misses)));
    misses.set("evictions", Json::number(static_cast<double>(
                                miss_after.evictions - miss_before.evictions)));
    misses.set("bind_miss_us", Json::number(miss_secs / unique_per * 1e6));
    misses.set("parse_adhoc_us", Json::number(adhoc_secs / unique_per * 1e6));
    text.set("unique_shapes", std::move(misses));
    report.set("sql_text", std::move(text));
    std::cout << "SQL text (1 client, best of 3): serve(sql) "
              << format_fixed(text_secs / per * 1e6, 1)
              << " us vs parse_adhoc + serve_on "
              << format_fixed(parsed_secs / per * 1e6, 1) << " us vs serve_on "
              << format_fixed(spec_secs / per * 1e6, 1)
              << " us per request, shape-cache hit ratio "
              << format_fixed(hit_ratio, 4) << "; distinct shapes: bind "
              << format_fixed(miss_secs / unique_per * 1e6, 1)
              << " us vs parse_adhoc "
              << format_fixed(adhoc_secs / unique_per * 1e6, 1)
              << " us per request\n";
  }

  // Snapshot churn: 4 readers serve while a writer loops ingest+refresh
  // with a single publish per round.
  {
    std::atomic<bool> done{false};
    std::atomic<std::size_t> served{0};
    std::vector<std::thread> readers;
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        std::size_t i = 0;
        while (!done.load(std::memory_order_acquire)) {
          const MixEntry& entry =
              mix[(static_cast<std::size_t>(t) + i++) % mix.size()];
          server.serve_on(server.snapshot(), entry.query);
          served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    Rng rng(2026);
    UpdateStreamOptions updates;
    const int rounds = smoke ? 3 : 10;
    for (int r = 0; r < rounds; ++r) {
      server.update_and_refresh(r % 2 == 0 ? "Order" : "Customer", updates,
                                rng);
    }
    done.store(true, std::memory_order_release);
    for (std::thread& rd : readers) rd.join();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();

    Json churn = Json::object();
    churn.set("readers", Json::number(4));
    churn.set("writer_rounds", Json::number(rounds));
    churn.set("queries", Json::number(served.load()));
    churn.set("secs", Json::number(secs));
    churn.set("qps", Json::number(static_cast<double>(served.load()) / secs));
    churn.set("final_epoch", Json::number(server.epoch()));
    report.set("snapshot_churn", std::move(churn));
    std::cout << "snapshot churn: " << served.load() << " queries in "
              << format_fixed(secs, 2) << " s ("
              << format_fixed(static_cast<double>(served.load()) / secs, 0)
              << " q/s) across " << rounds << " update_and_refresh rounds\n";
  }

  // Observatory overhead: the workload observatory's serve-path addition
  // is exactly one JournalEvent construction + record() (the fingerprint
  // is cached at bind time). Like the Ext-K tracing-tax gate, the <1%
  // bound is computed from the per-event cost measured directly over a
  // tight loop — representative hit and miss events recorded into a
  // live-shaped observatory — divided by the measured mean serve time;
  // wall-clock A/B of two full serve loops is reported alongside but
  // carries shared-runner noise far above the effect being gated.
  bool observatory_ok = true;
  {
    ServeOptions on_opts;
    on_opts.observe = true;
    ServeOptions off_opts;
    off_opts.observe = false;
    MvServer on_server = make_server(scale, on_opts);
    MvServer off_server = make_server(scale, off_opts);
    const std::size_t per_round = per_thread * 2;
    drive(on_server, mix, 1, per_round, ServePath::kAuto);   // warmup
    drive(off_server, mix, 1, per_round, ServePath::kAuto);  // warmup
    const Throughput on =
        drive(on_server, mix, 1, per_round, ServePath::kAuto);
    const Throughput off =
        drive(off_server, mix, 1, per_round, ServePath::kAuto);

    // Representative events cloned from real traffic: a view hit and an
    // uncovered fallback with its full refusal list.
    const auto snap = on_server.snapshot();
    const MixEntry& covered = mix.front();
    const MixEntry* uncovered = &mix.back();
    for (const MixEntry& entry : mix) {
      if (!entry.coverable) uncovered = &entry;
    }
    const ServeResult hit_r = on_server.serve_on(snap, covered.query);
    const ServeResult miss_r = on_server.serve_on(snap, uncovered->query);
    JournalEvent hit_proto;
    hit_proto.kind = EventKind::kServe;
    hit_proto.query = covered.query.name();
    hit_proto.fingerprint = query_fingerprint(covered.query);
    hit_proto.rewritten = true;
    hit_proto.view = hit_r.view;
    hit_proto.engine = hit_r.engine;
    hit_proto.latency_ms = hit_r.latency_ms;
    JournalEvent miss_proto;
    miss_proto.kind = EventKind::kServe;
    miss_proto.query = uncovered->query.name();
    miss_proto.fingerprint = query_fingerprint(uncovered->query);
    miss_proto.engine = miss_r.engine;
    miss_proto.latency_ms = miss_r.latency_ms;
    miss_proto.refusals = miss_r.refusals;

    WorkloadObservatory scratch;
    scratch.attach_journal(std::make_shared<EventJournal>(
        EventJournal::kDefaultCapacity, std::string()));
    const int iters = smoke ? 100'000 : 400'000;
    const auto r0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      JournalEvent e = i % 2 == 0 ? hit_proto : miss_proto;
      scratch.record(std::move(e));
    }
    const auto r1 = std::chrono::steady_clock::now();
    const double record_ns =
        std::chrono::duration<double, std::nano>(r1 - r0).count() / iters;

    const double mean_serve_secs =
        on.secs / static_cast<double>(on.queries);
    const double overhead_bound = record_ns * 1e-9 / mean_serve_secs;
    const double wall_clock_delta = on.secs / off.secs - 1.0;
    observatory_ok = overhead_bound < 0.01;

    Json obs = Json::object();
    obs.set("queries_per_pass", Json::number(per_round));
    obs.set("observe_on_secs", Json::number(on.secs));
    obs.set("observe_off_secs", Json::number(off.secs));
    obs.set("wall_clock_delta", Json::number(wall_clock_delta));
    obs.set("record_iters", Json::number(iters));
    obs.set("record_ns_per_serve", Json::number(record_ns));
    obs.set("mean_serve_us", Json::number(mean_serve_secs * 1e6));
    obs.set("overhead", Json::number(overhead_bound));
    obs.set("gate", Json::number(0.01));
    obs.set("ok", Json::boolean(observatory_ok));

    // Concurrent cost: the same mix from hardware_threads clients with the
    // observatory on and off, alternating, medians of three passes each.
    // Reported, not gated: shared-host noise swamps a sub-1% effect.
    std::vector<double> on_qps;
    std::vector<double> off_qps;
    for (int rep = 0; rep < 3; ++rep) {
      on_qps.push_back(
          drive(on_server, mix, hardware_threads, per_thread, ServePath::kAuto)
              .qps);
      off_qps.push_back(
          drive(off_server, mix, hardware_threads, per_thread, ServePath::kAuto)
              .qps);
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    Json concurrent = Json::object();
    concurrent.set("clients", Json::number(hardware_threads));
    concurrent.set("queries_per_pass",
                   Json::number(static_cast<std::size_t>(hardware_threads) *
                                per_thread));
    concurrent.set("observe_on_qps", Json::number(median(on_qps)));
    concurrent.set("observe_off_qps", Json::number(median(off_qps)));
    concurrent.set("on_over_off",
                   Json::number(median(on_qps) / median(off_qps)));
    obs.set("concurrent", std::move(concurrent));
    std::cout << "observatory at " << hardware_threads << " clients: "
              << format_fixed(median(on_qps), 0) << " q/s on vs "
              << format_fixed(median(off_qps), 0)
              << " q/s off (median of 3 passes each)\n";
    report.set("observatory", std::move(obs));
    std::cout << "observatory overhead: record "
              << format_fixed(record_ns, 0) << " ns/serve vs mean serve "
              << format_fixed(mean_serve_secs * 1e6, 1) << " us -> "
              << format_fixed(overhead_bound * 100.0, 3)
              << "% (gate < 1%); wall clock on "
              << format_fixed(on.secs * 1e3, 1) << " ms vs off "
              << format_fixed(off.secs * 1e3, 1) << " ms over " << per_round
              << " queries\n";
  }

  report.set("agreement", Json::boolean(agree));
  report.set("hit_rate_ok", Json::boolean(hit_rate_ok));
  report.set("observatory_ok", Json::boolean(observatory_ok));

  std::ofstream out("BENCH_serve.json");
  out << report.dump(2) << '\n';
  std::cout << "wrote BENCH_serve.json\n";
  if (!agree) std::cerr << "FAILED: rewrite/base disagreement\n";
  if (!hit_rate_ok) {
    std::cerr << "FAILED: hit rate below the mix's coverable fraction\n";
  }
  if (!observatory_ok) {
    std::cerr << "FAILED: observatory overhead at or above 1%\n";
  }
  return (agree && hit_rate_ok && observatory_ok) ? 0 : 1;
}
