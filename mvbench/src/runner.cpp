#include "mvbench/src/runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "mvbench/src/clocks.hpp"
#include "mvbench/src/stats.hpp"
#include "mvbench/src/trace.hpp"
#include "src/distributed/distributed_evaluator.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/mvpp/selection.hpp"
#include "src/optimizer/view_rewrite.hpp"
#include "src/sql/parser.hpp"
#include "src/storage/column_table.hpp"

#ifndef MVBENCH_BUILD_TYPE
#define MVBENCH_BUILD_TYPE "unknown"
#endif

namespace mvbench {

namespace {

/// Keeps probe results observable so the compiler cannot drop the work.
std::atomic<std::size_t> g_sink{0};

/// Seeds every run's update batches (workload.hpp says why not --seed).
constexpr std::uint64_t kBatchSeed = 1;

std::set<std::string> scanned_relations(const mvd::PlanPtr& plan) {
  std::set<std::string> out;
  std::vector<const mvd::LogicalOp*> stack{plan.get()};
  while (!stack.empty()) {
    const mvd::LogicalOp* op = stack.back();
    stack.pop_back();
    if (const auto* scan = dynamic_cast<const mvd::ScanOp*>(op)) {
      out.insert(scan->relation());
    }
    for (const mvd::PlanPtr& child : op->children()) {
      stack.push_back(child.get());
    }
  }
  return out;
}

// ---- Ops. Each is one call (or, for updates and design ops, the calls
// that make up the op) into the library's public API, and returns its CPU
// time (clocks.hpp says why not wall time); the phase that runs it scales
// that to the reference host. Queries and updates run on the calling
// thread (exec threads are pinned to 1), so the thread's clock times them
// even while another client serves. A design op also spends the rotation
// threads design() starts, so it is timed on the process clock and runs
// only while no other benchmark thread does. A traced op then records its
// spans (wall clock) and runs its probes, after the op's own span has
// closed; the probes' CPU time is added to `probe_us` so the traced
// throughput can leave it out.

/// Re-runs the steps MvServer::serve hides: parse, parse+bind (bind is the
/// difference), the registry's matchable() copy, matching against every
/// matchable view, and the columnar conversion of the tables the answer
/// plan scans (part of the engine's reported time).
void probe_query(const mvd::MvServer& server, const std::string& sql,
                 const mvd::ServeResult& r, double t0, double t1,
                 SpanLog& log) {
  const std::uint64_t req = log.begin_request();
  const std::uint64_t serve = log.add("serve", 0, req, t0, t1);
  const double exec_us = r.latency_ms * 1e3;
  const std::uint64_t exec =
      log.add("exec.run", serve, req, t1 - exec_us, t1, SpanKind::kReported);
  log.count("exec.rows_scanned", req, r.stats.rows_scanned);
  log.count("exec.blocks_read", req, r.stats.blocks_read);
  log.count("optimizer.hit", req, r.rewritten ? 1 : 0);

  double a = now_us();
  const mvd::ParsedQuery parsed = mvd::parse_query(sql);
  double b = now_us();
  g_sink += parsed.relations.size();
  log.add("sql.parse", serve, req, a, b, SpanKind::kProbe);
  const double parse_us = b - a;

  a = now_us();
  const mvd::QuerySpec query = mvd::parse_adhoc(server.catalog(), sql);
  b = now_us();
  log.add("algebra.bind", serve, req, a + parse_us, b, SpanKind::kProbe);

  const auto snap = server.snapshot();
  a = now_us();
  const std::vector<mvd::ViewDef> views = snap->registry.matchable();
  b = now_us();
  log.add("warehouse.matchable", serve, req, a, b, SpanKind::kProbe);

  a = now_us();
  std::optional<mvd::ViewMatch> best;
  for (const mvd::ViewDef& v : views) {
    std::string why;
    std::optional<mvd::ViewMatch> m =
        mvd::match_query_to_view(query, v, server.catalog(), &why);
    if (!m.has_value()) continue;
    if (!best.has_value() || m->stored_blocks < best->stored_blocks ||
        (m->stored_blocks == best->stored_blocks && m->view < best->view)) {
      best = std::move(m);
    }
  }
  b = now_us();
  log.add("optimizer.match", serve, req, a, b, SpanKind::kProbe);
  log.count("optimizer.views_tried", req, static_cast<double>(views.size()));

  const mvd::PlanPtr plan = best.has_value()
                                ? best->plan
                                : mvd::canonical_plan(server.catalog(), query);
  a = now_us();
  for (const std::string& rel : scanned_relations(plan)) {
    g_sink += mvd::ColumnTable::from_table(snap->db->table(rel)).row_count();
  }
  b = now_us();
  log.add("storage.columnar", exec, req, a, b, SpanKind::kProbe);
}

double query_op(mvd::MvServer& server, const Op& op, SpanLog* log,
                double* probe_us) {
  const double c0 = thread_cpu_us();
  const double t0 = now_us();
  const mvd::ServeResult r = server.serve(op.sql);
  const double t1 = now_us();
  const double c1 = thread_cpu_us();
  if (log != nullptr) {
    probe_query(server, op.sql, r, t0, t1, *log);
    if (probe_us != nullptr) *probe_us += thread_cpu_us() - c1;
  }
  return c1 - c0;
}

/// Probes an update: one copy of the current snapshot's Database per
/// publish (ingest and finish_refresh each make one), and the delta rows
/// and refreshed views the observatory journaled for this op.
void probe_update(const mvd::MvServer& server, double t0, double t1,
                  double t2, SpanLog& log) {
  const std::uint64_t req = log.begin_request();
  const std::uint64_t update = log.add("update", 0, req, t0, t2);
  const std::uint64_t ingest = log.add("serve.ingest", update, req, t0, t1);
  const std::uint64_t refresh =
      log.add("serve.refresh", update, req, t1, t2);
  for (const std::uint64_t parent : {ingest, refresh}) {
    const auto snap = server.snapshot();
    const double a = now_us();
    auto copy = std::make_unique<mvd::Database>(*snap->db);
    const double b = now_us();
    g_sink += copy->table_names().size();
    log.add("storage.snapshot_copy", parent, req, a, b, SpanKind::kProbe);
  }

  double delta_rows = 0;
  double refreshed = 0;
  if (server.observatory() != nullptr &&
      server.observatory()->journal() != nullptr) {
    const std::vector<mvd::JournalEvent> events =
        server.observatory()->journal()->events();
    // Newest first: a refresh event met before the ingest belongs to
    // this op; meeting the ingest first means nothing was refreshed.
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->kind == mvd::EventKind::kRefresh && refreshed == 0) {
        refreshed = static_cast<double>(it->refreshed.size());
      } else if (it->kind == mvd::EventKind::kIngest) {
        delta_rows = it->delta_rows;
        break;
      }
    }
  }
  log.count("maintenance.delta_rows", req, delta_rows);
  log.count("maintenance.views_refreshed", req, refreshed);
}

/// Ingest then refresh: the time until the batch is visible in VALID views.
double update_op(mvd::MvServer& server, const Warehouse& w, const Op& op,
                 SpanLog* log, double* probe_us) {
  mvd::Rng rng(op.seed);
  const double c0 = thread_cpu_us();
  const double t0 = now_us();
  server.ingest(op.relation, w.updates, rng);
  const double t1 = now_us();
  server.refresh(w.refresh);
  const double t2 = now_us();
  const double c2 = thread_cpu_us();
  if (log != nullptr) {
    probe_update(server, t0, t1, t2, *log);
    if (probe_us != nullptr) *probe_us += thread_cpu_us() - c2;
  }
  return c2 - c0;
}

/// Re-runs the two halves of WarehouseDesigner::design(): MVPP building
/// (every rotation) and selection (the Fig. 9 heuristic on each).
void probe_design(const mvd::WarehouseDesigner& designer, const Warehouse& w,
                  std::uint64_t parent, std::uint64_t req, SpanLog& log) {
  const mvd::CostModel cost_model(w.catalog, w.designer.cost);
  const mvd::Optimizer optimizer(cost_model);
  const mvd::MvppBuilder builder(optimizer);
  double a = now_us();
  const std::vector<mvd::MvppBuildResult> candidates =
      builder.build_all_rotations(designer.queries());
  double b = now_us();
  log.add("mvpp.build", parent, req, a, b, SpanKind::kProbe);
  a = now_us();
  const mvd::MvppChoice choice = mvd::choose_best_mvpp(
      candidates, w.designer.maintenance,
      [](const mvd::MvppEvaluator& e) { return mvd::yang_heuristic(e); });
  b = now_us();
  g_sink += choice.index;
  log.add("mvpp.select", parent, req, a, b, SpanKind::kProbe);
}

struct DesignOutcome {
  std::vector<std::string> views;
  double total = 0;
  double distributed = 0;

  friend bool operator==(const DesignOutcome&, const DesignOutcome&) = default;
};

/// design(), then the Fig. 9 heuristic over a 3-site distributed
/// evaluator for every candidate MVPP.
DesignOutcome design_op(const mvd::WarehouseDesigner& designer,
                        const Warehouse& w, SpanLog* log, double* latency_us,
                        double* probe_us) {
  const double c0 = process_cpu_us();
  const double t0 = now_us();
  const mvd::DesignResult d = designer.design();
  const double t1 = now_us();
  DesignOutcome out;
  for (const mvd::MvppBuildResult& c : d.candidates) {
    const mvd::DistributedMvppEvaluator eval(c.graph, w.topology,
                                             w.designer.maintenance);
    out.distributed += mvd::yang_heuristic(eval).costs.total();
  }
  const double t2 = now_us();
  const double c2 = process_cpu_us();
  *latency_us = c2 - c0;
  for (const mvd::NodeId v : d.selection.materialized) {
    out.views.push_back(d.graph().node(v).name);
  }
  out.total = d.selection.costs.total();
  if (log != nullptr) {
    const std::uint64_t req = log->begin_request();
    const std::uint64_t op = log->add("design", 0, req, t0, t2);
    const std::uint64_t wh = log->add("warehouse.design", op, req, t0, t1);
    log->add("distributed.select", op, req, t1, t2);
    log->count("mvpp.candidates", req,
               static_cast<double>(d.candidates.size()));
    log->count("mvpp.nodes", req, static_cast<double>(d.graph().size()));
    probe_design(designer, w, wh, req, *log);
    if (probe_us != nullptr) *probe_us += process_cpu_us() - c2;
  }
  return out;
}

/// How long a phase took: its wall time, and per client (a serial phase
/// has one) its CPU time and the part of that its probes took, both scaled
/// to the reference host.
struct PhaseTime {
  double wall_s = 0;
  double cpu_s = 0;
  double probe_s = 0;
};

struct ClientOut {
  std::vector<double> latencies_us;  // scaled
  std::size_t failed = 0;
  double speed = 1;   // host_speed() on the client's thread
  double cpu_us = 0;  // from the release to the client's last reply
  double probe_us = 0;
  std::string error;
  SpanLog log;
};

/// Closed loop: one thread per stream, released together; each sends its
/// next request only after the reply. Before the release a client measures
/// the host's speed on its thread and serves its entry in `warm`, if any,
/// untimed. Returns the wall time from the release to the last reply and
/// the clients' mean CPU and probe times.
PhaseTime run_clients(mvd::MvServer& server,
                      const std::vector<std::vector<Op>>& streams,
                      const std::vector<Op>& warm, bool traced,
                      std::vector<ClientOut>& out) {
  out.clear();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    out.emplace_back();
    out.back().latencies_us.reserve(streams[i].size());
  }
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  auto client = [&](std::size_t i) {
    ClientOut& c = out[i];
    auto serve = [&](const Op& op, SpanLog* log) {
      try {
        return std::optional<double>(query_op(server, op, log, &c.probe_us));
      } catch (const std::exception& e) {
        ++c.failed;
        if (c.error.empty()) c.error = e.what();
        return std::optional<double>();
      }
    };
    c.speed = host_speed();
    if (i < warm.size()) serve(warm[i], nullptr);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const double c0 = thread_cpu_us();
    for (const Op& op : streams[i]) {
      if (const auto us = serve(op, traced ? &c.log : nullptr)) {
        c.latencies_us.push_back(*us * c.speed);
      }
    }
    c.cpu_us = thread_cpu_us() - c0;
  };
  try {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      threads.emplace_back(client, i);
    }
  } catch (...) {
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    throw;
  }
  while (ready.load() < streams.size()) std::this_thread::yield();
  const double t0 = now_us();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  PhaseTime time;
  time.wall_s = (now_us() - t0) / 1e6;
  for (const ClientOut& c : out) {
    const double n = static_cast<double>(out.size());
    time.cpu_s += c.cpu_us * c.speed / 1e6 / n;
    time.probe_s += c.probe_us * c.speed / 1e6 / n;
  }
  return time;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

mvd::Json json_tail(const Tail& t) {
  mvd::Json out = mvd::Json::object();
  out.set("value_us", json_number(t.value));
  out.set("percentile", json_number(t.percentile));
  out.set("samples", mvd::Json::number(t.samples));
  return out;
}

class Runner {
 public:
  Runner(const Workload& workload, const RunOptions& options)
      : wl_(workload),
        opt_(options),
        w_(workload.make(options.smoke)),
        designer_(w_.catalog, w_.designer) {}

  RunResult run();

 private:
  std::size_t sized(std::size_t full, std::size_t smoke) const {
    return opt_.smoke ? std::min(full, smoke) : full;
  }
  void problem(const std::string& what) {
    ++failed_;
    if (problems_.size() < 20) problems_.push_back(what);
  }
  bool result_materialized(const std::string& query) const;

  /// Measures the host's speed on this thread for the phase that follows.
  void calibrate();
  void setup(bool timed);
  PhaseTime design_phase(std::size_t count, bool traced);
  void gate_routes(const std::vector<Op>& sample);
  PhaseTime query_phase(const std::vector<std::vector<Op>>& streams,
                        const std::vector<Op>& warm, bool traced);
  PhaseTime serial_phase(const std::vector<Op>& ops, bool traced);
  void add_main(bool traced, std::size_t ops, const PhaseTime& time);
  void gate_views();
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  mvd::Json report(const std::vector<Metric>& metrics) const;

  const Workload& wl_;
  RunOptions opt_;
  Warehouse w_;
  mvd::WarehouseDesigner designer_;
  std::unique_ptr<mvd::MvServer> server_;
  mvd::DesignResult design_;  // the design server_ serves
  std::optional<DesignOutcome> design_ref_;

  SpanLog log_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;

  double speed_ = 1;            // host_speed() for the current phase
  std::vector<double> speeds_;  // every host_speed() of the run
  // Samples, scaled to the reference host.
  std::vector<double> setup_s_;
  std::vector<double> design_us_;
  std::vector<double> query_us_;
  std::vector<double> update_us_;
  // Main phase: each round's ops per scaled CPU-second (probes left out),
  // [0] untraced rounds, [1] traced ones; and totals for the report.
  std::vector<double> round_rates_[2];
  std::size_t main_ops_ = 0;
  double main_wall_s_ = 0;
  double main_cpu_s_ = 0;
};

void Runner::calibrate() {
  speed_ = host_speed();
  speeds_.push_back(speed_);
}

bool Runner::result_materialized(const std::string& query) const {
  const mvd::MvppGraph& g = design_.graph();
  const mvd::NodeId root = g.find_by_name(query);
  if (root < 0 || g.node(root).children.empty()) return false;
  return design_.selection.materialized.count(g.node(root).children[0]) > 0;
}

/// A fresh set-up: design() plus MvServer construction (which deploys the
/// chosen views), from inputs already generated. The untimed one builds
/// the server the run serves; a timed one builds a server that is dropped
/// afterwards, so the serving one lives for the whole run.
void Runner::setup(bool timed) {
  const double c0 = process_cpu_us();
  const double t0 = now_us();
  mvd::DesignResult d = designer_.design();
  const double t1 = now_us();
  const double c1 = process_cpu_us();
  if (!timed) design_ = d;
  mvd::Catalog catalog = w_.catalog;
  const double c2 = process_cpu_us();
  const double t2 = now_us();
  auto server = std::make_unique<mvd::MvServer>(
      std::move(catalog), std::move(d), w_.db, w_.serve);
  const double t3 = now_us();
  const double c3 = process_cpu_us();
  if (!timed) {
    server_ = std::move(server);
    return;
  }
  setup_s_.push_back(((c1 - c0) + (c3 - c2)) * speed_ / 1e6);
  if (opt_.trace) {
    const std::uint64_t req = log_.begin_request();
    const std::uint64_t op = log_.add("setup", 0, req, t0, t3);
    const std::uint64_t wh = log_.add("warehouse.design", op, req, t0, t1);
    log_.add("serve.deploy", op, req, t2, t3);
    probe_design(designer_, w_, wh, req, log_);
  }
}

PhaseTime Runner::design_phase(std::size_t count, bool traced) {
  double probe_us = 0;
  const double c0 = process_cpu_us();
  const double t0 = now_us();
  for (std::size_t i = 0; i < count; ++i) {
    ++attempted_;
    try {
      double latency = 0;
      const DesignOutcome out = design_op(
          designer_, w_, traced ? &log_ : nullptr, &latency, &probe_us);
      design_us_.push_back(latency * speed_);
      if (!design_ref_.has_value()) design_ref_ = out;
      if (!(out == *design_ref_)) {
        problem("design op returned another materialized set or cost");
      }
    } catch (const std::exception& e) {
      problem(std::string("design op: ") + e.what());
    }
  }
  return {(now_us() - t0) / 1e6, (process_cpu_us() - c0) * speed_ / 1e6,
          probe_us * speed_ / 1e6};
}

/// Serves each sampled request with kAuto and with kBaseOnly on one pinned
/// snapshot: the answers must be the same bag and the route the expected
/// one.
void Runner::gate_routes(const std::vector<Op>& sample) {
  const auto snap = server_->snapshot();
  for (const Op& op : sample) {
    ++attempted_;
    try {
      const mvd::QuerySpec q = mvd::parse_adhoc(server_->catalog(), op.sql);
      const mvd::ServeResult a =
          server_->serve_on(snap, q, mvd::ServePath::kAuto);
      const mvd::ServeResult b =
          server_->serve_on(snap, q, mvd::ServePath::kBaseOnly);
      if (!mvd::same_bag(a.table, b.table)) {
        problem("answer differs from the base tables: " + op.sql);
      }
      const QueryTemplate& t = w_.templates[op.tmpl];
      const Route route = op.declared ? Route::kDesigned : t.route;
      const bool ok =
          route == Route::kView   ? a.rewritten
          : route == Route::kBase ? !a.rewritten
          : route == Route::kDesigned
              ? a.rewritten || !result_materialized(t.name)
              : true;
      if (!ok) {
        problem("unexpected route (" +
                std::string(a.rewritten ? "view " + a.view : "base tables") +
                "): " + op.sql);
      }
    } catch (const std::exception& e) {
      problem(std::string("gate: ") + e.what());
    }
  }
}

PhaseTime Runner::query_phase(const std::vector<std::vector<Op>>& streams,
                              const std::vector<Op>& warm, bool traced) {
  std::vector<ClientOut> out;
  const PhaseTime time = run_clients(*server_, streams, warm, traced, out);
  for (ClientOut& c : out) {
    attempted_ += c.latencies_us.size() + c.failed;
    for (std::size_t i = 0; i < c.failed; ++i) problem("serve: " + c.error);
    query_us_.insert(query_us_.end(), c.latencies_us.begin(),
                     c.latencies_us.end());
    speeds_.push_back(c.speed);
    log_.merge(std::move(c.log));
  }
  return time;
}

/// One loader thread: updates and queries in stream order.
PhaseTime Runner::serial_phase(const std::vector<Op>& ops, bool traced) {
  SpanLog* log = traced ? &log_ : nullptr;
  double probe_us = 0;
  const double c0 = process_cpu_us();
  const double t0 = now_us();
  for (const Op& op : ops) {
    ++attempted_;
    try {
      if (op.update) {
        update_us_.push_back(update_op(*server_, w_, op, log, &probe_us) *
                             speed_);
      } else {
        query_us_.push_back(query_op(*server_, op, log, &probe_us) * speed_);
      }
    } catch (const std::exception& e) {
      problem(std::string(op.update ? "update: " : "serve: ") + e.what());
    }
  }
  return {(now_us() - t0) / 1e6, (process_cpu_us() - c0) * speed_ / 1e6,
          probe_us * speed_ / 1e6};
}

void Runner::add_main(bool traced, std::size_t ops, const PhaseTime& time) {
  round_rates_[traced].push_back(static_cast<double>(ops) /
                                 (time.cpu_s - time.probe_s));
  main_ops_ += ops;
  main_wall_s_ += time.wall_s;
  main_cpu_s_ += time.cpu_s;
}

/// Every deployed view must be VALID and equal a from-base recompute of
/// its refresh plan.
void Runner::gate_views() {
  const auto snap = server_->snapshot();
  const mvd::MvppGraph& g = design_.graph();
  for (const mvd::DeployedView& v : snap->registry.views()) {
    ++attempted_;
    try {
      if (v.status != mvd::ViewStatus::kValid) {
        problem("view " + v.def.name + " is " + mvd::to_string(v.status));
        continue;
      }
      const mvd::Executor exec(snap->db, w_.serve.mode, w_.serve.threads);
      const mvd::Table fresh = exec.run(
          mvd::refresh_plan(g, g.find_by_name(v.def.name), {}));
      if (!mvd::same_bag(fresh, snap->db->table(v.def.name))) {
        problem("view " + v.def.name + " differs from its recompute");
      }
    } catch (const std::exception& e) {
      problem(std::string("view gate: ") + e.what());
    }
  }
}

RunResult Runner::run() {
  for (const DeclaredQuery& q : w_.declared) {
    designer_.add_query(q.name, q.fq, q.sql);
  }

  // Every stream is generated before anything is timed. The main phase is
  // a fixed op count; side phases are fixed counts.
  const std::size_t main_count = std::max<std::size_t>(
      opt_.smoke ? 4 : 2,
      static_cast<std::size_t>(std::llround(wl_.rate * opt_.seconds)));
  const std::size_t queries = sized(
      wl_.main == MainPhase::kQueries ? main_count : wl_.queries, 40);
  const std::size_t design_ops = sized(
      wl_.main == MainPhase::kDesign ? main_count : wl_.design_ops, 4);
  const std::size_t mixed = sized(
      wl_.main == MainPhase::kMixed ? main_count : 0, 40);
  const std::size_t updates = sized(wl_.updates, 5);
  const std::size_t setups = sized(wl_.setups, 2);

  // Each round's slice of a phase starts with one untimed op of its kind
  // (a query per client), so a phase switch's cold caches do not land a
  // fixed number of slow samples at the tail's rank. Slices of one op
  // (design's updates) are all alike and run unwarmed.
  const std::size_t rounds = opt_.smoke ? 2 : 40;
  const std::size_t warmup = sized(wl_.warmup, 10);

  mvd::Rng rng(opt_.seed);
  std::vector<std::vector<Op>> clients;
  for (std::size_t c = 0; c < wl_.clients; ++c) {
    mvd::Rng client_rng(rng.next_u64());
    const std::size_t share =
        queries / wl_.clients + (c < queries % wl_.clients ? 1 : 0);
    clients.push_back(query_stream(w_, share, client_rng));
  }
  mvd::Rng batches(kBatchSeed);
  mvd::Rng mixed_rng(rng.next_u64());
  const std::vector<Op> mixed_ops =
      mixed_stream(w_, mixed, mixed_rng, batches);
  const std::vector<Op> update_ops = update_stream(w_, updates, batches);
  mvd::Rng warm_rng(rng.next_u64());
  const std::vector<Op> warm_queries =
      query_stream(w_, warmup + rounds * wl_.clients, warm_rng);
  const std::vector<Op> warm_updates = update_stream(w_, 1 + rounds, batches);
  mvd::Rng gate_rng(rng.next_u64());
  const std::vector<Op> gate_ops =
      query_stream(w_, sized(wl_.gate, 10), gate_rng);

  setup(false);  // the server the gate and the warm-up run on
  gate_routes(gate_ops);

  {  // Warm-up, untimed: a design op, the warm-up queries and an update.
    design_phase(1, false);
    design_us_.clear();
    const std::vector<Op> first(warm_queries.begin(),
                                warm_queries.begin() +
                                    static_cast<std::ptrdiff_t>(warmup));
    if (wl_.main == MainPhase::kMixed) {
      serial_phase(first, false);
    } else {
      query_phase({first}, {}, false);
    }
    if (updates > 0 || mixed > 0) {
      serial_phase({warm_updates[0]}, false);
    }
    speeds_.clear();
    query_us_.clear();
    update_us_.clear();
  }
  auto untimed = [&](const std::vector<Op>& ops) {
    const std::size_t q = query_us_.size();
    const std::size_t u = update_us_.size();
    serial_phase(ops, false);
    query_us_.resize(q);
    update_us_.resize(u);
  };

  // The phases run interleaved in rounds, so every metric samples the
  // whole run rather than one stretch of it: on a shared host the speed
  // drifts over seconds and slow spells come in bursts, which medians (of
  // op times, and of the rounds' throughputs) then ride out. A traced run
  // traces the main phase in odd rounds only; the even rounds give the
  // untraced throughput that the tracing overhead compares against.
  auto part = [rounds](std::size_t n, std::size_t r) {
    return std::make_pair(n * r / rounds, n * (r + 1) / rounds);
  };
  auto slice = [](const std::vector<Op>& ops, std::size_t b, std::size_t e) {
    return std::vector<Op>(ops.begin() + static_cast<std::ptrdiff_t>(b),
                           ops.begin() + static_cast<std::ptrdiff_t>(e));
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    const bool traced_main = opt_.trace && r % 2 == 1;
    const Op& warm_update = warm_updates[1 + r];
    const std::vector<Op> warm_round = slice(
        warm_queries, warmup + r * wl_.clients, warmup + (r + 1) * wl_.clients);
    if (const auto [b, e] = part(setups, r); e > b) {
      calibrate();
      for (std::size_t i = b; i < e; ++i) setup(true);
    }
    if (const auto [b, e] = part(design_ops, r); e > b) {
      const bool main = wl_.main == MainPhase::kDesign;
      calibrate();
      const std::size_t kept = design_us_.size();
      design_phase(1, false);
      design_us_.resize(kept);
      const PhaseTime time =
          design_phase(e - b, main ? traced_main : opt_.trace);
      if (main) add_main(traced_main, e - b, time);
    }
    if (queries > 0) {
      std::vector<std::vector<Op>> slices;
      std::size_t n = 0;
      for (const std::vector<Op>& s : clients) {
        const auto [b, e] = part(s.size(), r);
        slices.push_back(slice(s, b, e));
        n += e - b;
      }
      const bool main = wl_.main == MainPhase::kQueries;
      const PhaseTime time = query_phase(slices, warm_round,
                                         main ? traced_main : opt_.trace);
      if (main) add_main(traced_main, n, time);
    }
    if (!mixed_ops.empty()) {
      const auto [b, e] = part(mixed_ops.size(), r);
      calibrate();
      untimed({warm_update, warm_round.front()});
      add_main(traced_main, e - b,
               serial_phase(slice(mixed_ops, b, e), traced_main));
    }
    if (const auto [b, e] = part(updates, r); e > b) {
      calibrate();
      if (e - b > 1) untimed({warm_update});
      serial_phase(slice(update_ops, b, e), opt_.trace);
    }
  }

  gate_views();

  RunResult result;
  result.attempted = std::max<std::size_t>(attempted_, 1);
  result.failed = failed_;
  result.correct = failed_ == 0;
  result.metrics = opt_.trace ? per_layer() : end_to_end();
  result.report = report(result.metrics);
  if (opt_.trace && !opt_.trace_out.empty() &&
      !write_spans(opt_.trace_out, log_.spans())) {
    result.correct = false;
    ++result.failed;
  }
  return result;
}

std::vector<Metric> Runner::end_to_end() const {
  const Tail q = tail(query_us_);
  const Tail u = tail(update_us_);
  const Tail d = tail(design_us_);
  return {
      {"setup_s", median(setup_s_), "s"},
      {"ops_per_s", median(round_rates_[0]), "1/s"},
      {"query_p50_us", median(query_us_), "us"},
      {"query_tail_us", q.value, "us"},
      {"update_p50_us", median(update_us_), "us"},
      {"update_tail_us", u.value, "us"},
      {"design_p50_us", median(design_us_), "us"},
      {"design_tail_us", d.value, "us"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> Runner::per_layer() const {
  const std::map<std::string, LayerStat> layers = layer_stats(log_.spans());
  const std::map<std::string, double> counts = count_medians(log_.counts());
  auto total = [&](const std::string& layer) {
    const auto it = layers.find(layer);
    return it == layers.end() ? 0.0 : it->second.p50_us;
  };
  auto self = [&](const std::string& layer) {
    const auto it = layers.find(layer);
    return it == layers.end() ? 0.0 : it->second.self_p50_us;
  };
  auto count = [&](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  const double untraced = median(round_rates_[0]);
  const double traced = median(round_rates_[1]);
  double hits = 0;
  double serves = 0;
  for (const Count& c : log_.counts()) {
    if (c.name != "optimizer.hit") continue;
    hits += c.value;
    ++serves;
  }
  return {
      {"sql.parse_us", total("sql.parse"), "us"},
      {"algebra.bind_us", total("algebra.bind"), "us"},
      {"warehouse.matchable_us", total("warehouse.matchable"), "us"},
      {"optimizer.match_us", total("optimizer.match"), "us"},
      {"optimizer.views_tried", count("optimizer.views_tried"), "count"},
      {"optimizer.hit_ratio", serves > 0 ? hits / serves : 0.0, "ratio"},
      {"exec.run_us", total("exec.run"), "us"},
      {"exec.self_us", self("exec.run"), "us"},
      {"exec.rows_scanned", count("exec.rows_scanned"), "count"},
      {"exec.blocks_read", count("exec.blocks_read"), "count"},
      {"storage.columnar_us", total("storage.columnar"), "us"},
      {"serve.other_us", self("serve"), "us"},
      {"serve.ingest_us", total("serve.ingest"), "us"},
      {"serve.ingest_self_us", self("serve.ingest"), "us"},
      {"serve.refresh_us", total("serve.refresh"), "us"},
      {"serve.refresh_self_us", self("serve.refresh"), "us"},
      {"storage.snapshot_copy_us", total("storage.snapshot_copy"), "us"},
      {"maintenance.delta_rows", count("maintenance.delta_rows"), "count"},
      {"maintenance.views_refreshed", count("maintenance.views_refreshed"),
       "count"},
      {"mvpp.build_us", total("mvpp.build"), "us"},
      {"mvpp.select_us", total("mvpp.select"), "us"},
      {"distributed.select_us", total("distributed.select"), "us"},
      {"mvpp.candidates", count("mvpp.candidates"), "count"},
      {"mvpp.nodes", count("mvpp.nodes"), "count"},
      {"warehouse.design_us", total("warehouse.design"), "us"},
      {"warehouse.design_self_us", self("warehouse.design"), "us"},
      {"serve.deploy_us", total("serve.deploy"), "us"},
      {"trace.untraced_ops_per_s", untraced, "1/s"},
      {"trace.traced_ops_per_s", traced, "1/s"},
      {"trace.overhead", untraced / traced - 1.0, "ratio"},
  };
}

mvd::Json Runner::report(const std::vector<Metric>& metrics) const {
  const auto snap = server_->snapshot();
  std::size_t base_rows = 0;
  for (const std::string& rel : w_.catalog.relation_names()) {
    base_rows += w_.db.table(rel).row_count();
  }
  mvd::Json views = mvd::Json::array();
  for (const mvd::DeployedView& v : snap->registry.views()) {
    views.push_back(mvd::Json::string(v.def.name));
  }
  mvd::Json problems = mvd::Json::array();
  for (const std::string& p : problems_) {
    problems.push_back(mvd::Json::string(p));
  }
  mvd::Json out = mvd::Json::object();
  out.set("workload", mvd::Json::string(wl_.name));
  out.set("seed", mvd::Json::number(static_cast<double>(opt_.seed)));
  out.set("seconds", json_number(opt_.seconds));
  out.set("trace", mvd::Json::boolean(opt_.trace));
  out.set("smoke", mvd::Json::boolean(opt_.smoke));
  out.set("hardware_threads",
          mvd::Json::number(
              static_cast<std::size_t>(std::thread::hardware_concurrency())));
  out.set("build_type", mvd::Json::string(MVBENCH_BUILD_TYPE));
  out.set("exec_mode", mvd::Json::string(mvd::exec_mode_name(w_.serve.mode)));
  out.set("exec_threads", mvd::Json::number(w_.serve.threads));
  out.set("rewrite", mvd::Json::boolean(w_.serve.rewrite));
  out.set("observe", mvd::Json::boolean(w_.serve.observe));
  out.set("refresh_mode", mvd::Json::string(mvd::to_string(w_.refresh)));
  out.set("clients", mvd::Json::number(wl_.clients));
  out.set("base_rows", mvd::Json::number(base_rows));
  out.set("templates", mvd::Json::number(w_.templates.size()));
  out.set("views", std::move(views));
  out.set("main_ops", mvd::Json::number(main_ops_));
  out.set("main_wall_s", json_number(main_wall_s_));
  out.set("main_cpu_s", json_number(main_cpu_s_));
  if (!speeds_.empty()) {
    const auto [lo, hi] = std::minmax_element(speeds_.begin(), speeds_.end());
    mvd::Json speed = mvd::Json::object();
    speed.set("median", json_number(median(speeds_)));
    speed.set("min", json_number(*lo));
    speed.set("max", json_number(*hi));
    speed.set("samples", mvd::Json::number(speeds_.size()));
    out.set("host_speed", std::move(speed));
  }
  out.set("setups", mvd::Json::number(setup_s_.size()));
  out.set("query", json_tail(tail(query_us_)));
  out.set("update", json_tail(tail(update_us_)));
  out.set("design", json_tail(tail(design_us_)));
  if (opt_.trace) {
    mvd::Json layers = mvd::Json::object();
    for (const auto& [layer, s] : layer_stats(log_.spans())) {
      mvd::Json stat = mvd::Json::object();
      stat.set("ops", mvd::Json::number(s.ops));
      stat.set("p50_us", json_number(s.p50_us));
      stat.set("self_p50_us", json_number(s.self_p50_us));
      layers.set(layer, std::move(stat));
    }
    out.set("layers", std::move(layers));
    out.set("spans", mvd::Json::number(log_.spans().size()));
  }
  out.set("metrics", mvd::Json::number(metrics.size()));
  out.set("problems", std::move(problems));
  return out;
}

}  // namespace

RunResult run_workload(const Workload& workload, const RunOptions& options) {
  Runner runner(workload, options);
  return runner.run();
}

std::string result_line(const RunResult& result) {
  mvd::Json metrics = mvd::Json::object();
  for (const Metric& m : result.metrics) {
    mvd::Json metric = mvd::Json::object();
    metric.set("value", json_number(m.value));
    metric.set("unit", mvd::Json::string(m.unit));
    metrics.set(m.name, std::move(metric));
  }
  mvd::Json out = mvd::Json::object();
  out.set("correct", mvd::Json::boolean(result.correct));
  out.set("attempted", mvd::Json::number(result.attempted));
  out.set("failed", mvd::Json::number(result.failed));
  out.set("metrics", std::move(metrics));
  return out.dump();
}

}  // namespace mvbench
