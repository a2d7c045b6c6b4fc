// Ext-I: throughput of the cost-evaluation fast path on generated
// workloads (8–22 operation nodes).
//
// For each workload the bench drives the greedy and local-search probing
// loops twice — once with the legacy std::set evaluator (copy the set,
// re-evaluate the whole workload per probe through MvppEvaluator's
// reference walk: the seed's only path) and once with the incremental
// bitset engine (cached terms, ancestor-cone recomputation) — and reports
// evaluations/sec for both, checking that the probed decisions land on
// the same materialized set. Each workload runs on the centralized cost
// model and again on a DistributedMvppEvaluator over three sites, whose
// transfer charges both engines price from the same placement data. It
// also times the exhaustive 2^n search serial vs parallel and asserts the
// results are bit-identical. Everything is written to BENCH_selection.json
// in the current directory.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "src/common/assert.hpp"
#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/common/text_table.hpp"
#include "src/common/units.hpp"
#include "src/distributed/distributed_evaluator.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/fast_eval.hpp"
#include "src/mvpp/selection.hpp"
#include "src/workload/generator.hpp"

using namespace mvd;

namespace {

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

double secs_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The seed's probing mechanics: copy the std::set, toggle, price the
// whole workload from scratch.
class LegacyEngine {
 public:
  explicit LegacyEngine(const MvppEvaluator& eval) : eval_(&eval) {}

  void load(MaterializedSet m) {
    m_ = std::move(m);
    total_ = eval_->total_cost(m_);
    ++evals_;
  }
  double total() const { return total_; }
  bool contains(NodeId v) const { return m_.contains(v); }
  double probe_toggle(NodeId v) {
    MaterializedSet next = m_;
    if (!next.erase(v)) next.insert(v);
    ++evals_;
    return eval_->total_cost(next);
  }
  double probe_swap(NodeId out, NodeId in) {
    MaterializedSet next = m_;
    next.erase(out);
    next.insert(in);
    ++evals_;
    return eval_->total_cost(next);
  }
  void commit_toggle(NodeId v, double new_total) {
    if (!m_.erase(v)) m_.insert(v);
    total_ = new_total;
  }
  MaterializedSet snapshot() const { return m_; }
  std::size_t evaluations() const { return evals_; }

 private:
  const MvppEvaluator* eval_;
  MaterializedSet m_;
  double total_ = 0;
  std::size_t evals_ = 0;
};

// The PR's incremental bitset engine.
class FastEngine {
 public:
  explicit FastEngine(const MvppEvaluator& eval)
      : fast_(eval, eval.closures()) {}

  void load(MaterializedSet m) {
    fast_.load(to_fast_set(m, fast_.universe()));
  }
  double total() const { return fast_.current_total(); }
  bool contains(NodeId v) const { return fast_.current().test(v); }
  double probe_toggle(NodeId v) { return fast_.probe_toggle(v); }
  double probe_swap(NodeId out, NodeId in) {
    return fast_.probe_swap(out, in);
  }
  void commit_toggle(NodeId v, double) { fast_.commit_toggle(v); }
  MaterializedSet snapshot() const {
    return to_materialized_set(fast_.current());
  }
  std::size_t evaluations() const { return fast_.evaluations(); }

 private:
  FastMvppEvaluator fast_;
};

// Exact-gain greedy probing loop (mirrors greedy_incremental).
template <typename Engine>
MaterializedSet run_greedy(const MvppEvaluator& eval, Engine& engine) {
  const std::vector<NodeId> candidates = eval.graph().operation_ids();
  engine.load({});
  double current = engine.total();
  while (true) {
    std::optional<NodeId> best_v;
    double best_cost = current;
    for (NodeId v : candidates) {
      if (engine.contains(v)) continue;
      const double cost = engine.probe_toggle(v);
      if (cost < best_cost) {
        best_cost = cost;
        best_v = v;
      }
    }
    if (!best_v.has_value()) break;
    engine.commit_toggle(*best_v, best_cost);
    current = best_cost;
  }
  return engine.snapshot();
}

// Local-search probing loop (mirrors local_search: toggles + swaps).
template <typename Engine>
MaterializedSet run_local_search(const MvppEvaluator& eval, Engine& engine,
                                 const MaterializedSet& start) {
  const std::vector<NodeId> candidates = eval.graph().operation_ids();
  engine.load(start);
  double current_cost = engine.total();
  for (std::size_t round = 0; round < 1000; ++round) {
    double best_cost = current_cost;
    std::optional<NodeId> toggle_a;
    std::optional<NodeId> toggle_b;
    for (NodeId v : candidates) {
      const double cost = engine.probe_toggle(v);
      if (cost < best_cost - 1e-9) {
        best_cost = cost;
        toggle_a = v;
        toggle_b.reset();
      }
    }
    const MaterializedSet current = engine.snapshot();
    for (NodeId out : current) {
      for (NodeId in : candidates) {
        if (current.contains(in)) continue;
        const double cost = engine.probe_swap(out, in);
        if (cost < best_cost - 1e-9) {
          best_cost = cost;
          toggle_a = out;
          toggle_b = in;
        }
      }
    }
    if (!toggle_a.has_value()) break;
    engine.commit_toggle(*toggle_a, best_cost);
    if (toggle_b.has_value()) engine.commit_toggle(*toggle_b, best_cost);
    current_cost = best_cost;
  }
  return engine.snapshot();
}

struct Measured {
  double secs = 0;
  std::size_t evals = 0;
  std::size_t reps = 0;
  MaterializedSet result;
  double evals_per_sec() const { return secs > 0 ? evals / secs : 0; }
};

// Repeat `run` (engine constructed per repetition, as a search would)
// until at least `min_secs` of wall time has been spent.
template <typename Engine, typename Run>
Measured measure(const MvppEvaluator& eval, const Run& run,
                 double min_secs) {
  Measured m;
  const auto start = std::chrono::steady_clock::now();
  do {
    Engine engine(eval);
    m.result = run(engine);
    m.evals += engine.evaluations();
    ++m.reps;
    m.secs = secs_since(start);
  } while (m.secs < min_secs);
  return m;
}

struct WorkloadCase {
  std::string name;
  MvppGraph graph;
};

WorkloadCase star_case(std::size_t dimensions, std::size_t queries,
                       std::uint64_t seed) {
  StarSchemaOptions schema;
  schema.dimensions = dimensions;
  const Catalog catalog = make_star_catalog(schema);
  StarQueryOptions qopts;
  qopts.count = queries;
  qopts.max_dimensions = std::min<std::size_t>(3, dimensions);
  qopts.seed = seed;
  const std::vector<QuerySpec> specs =
      generate_star_queries(catalog, schema, qopts);
  const CostModel model(catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  WorkloadCase w;
  w.name = "star_d" + std::to_string(dimensions) + "_q" +
           std::to_string(queries) + "_s" + std::to_string(seed);
  w.graph = builder.build(specs, builder.initial_order(specs)).graph;
  return w;
}

WorkloadCase chain_case(std::size_t length, std::size_t queries,
                        std::uint64_t seed) {
  ChainSchemaOptions schema;
  schema.length = length;
  const Catalog catalog = make_chain_catalog(schema);
  ChainQueryOptions qopts;
  qopts.count = queries;
  qopts.max_span = std::min<std::size_t>(4, length - 1);
  qopts.seed = seed;
  const std::vector<QuerySpec> specs =
      generate_chain_queries(catalog, schema, qopts);
  const CostModel model(catalog, {});
  const Optimizer optimizer(model);
  const MvppBuilder builder(optimizer);
  WorkloadCase w;
  w.name = "chain_l" + std::to_string(length) + "_q" +
           std::to_string(queries) + "_s" + std::to_string(seed);
  w.graph = builder.build(specs, builder.initial_order(specs)).graph;
  return w;
}

/// Three sites, link cost 4 per block: base relations and query issue
/// sites assigned round-robin in id order.
SiteTopology three_sites(const MvppGraph& g) {
  const std::vector<std::string> sites{"s0", "s1", "s2"};
  SiteTopology topo(sites, 4.0);
  std::size_t i = 0;
  for (NodeId b : g.base_ids()) {
    topo.place_relation(g.node(b).relation, sites[i++ % sites.size()]);
  }
  i = 0;
  for (NodeId q : g.query_ids()) {
    topo.place_query(g.node(q).name, sites[i++ % sites.size()]);
  }
  return topo;
}

struct ProbeRows {
  Measured greedy_legacy, greedy_fast, local_legacy, local_fast;
};

/// Greedy, then local search from greedy's result, each on both engines;
/// asserts that both engines land on the same set.
ProbeRows measure_probes(const MvppEvaluator& eval, double min_secs) {
  ProbeRows rows;
  const auto greedy_run = [&](auto& engine) {
    return run_greedy(eval, engine);
  };
  rows.greedy_legacy = measure<LegacyEngine>(eval, greedy_run, min_secs);
  rows.greedy_fast = measure<FastEngine>(eval, greedy_run, min_secs);
  MVD_ASSERT(rows.greedy_legacy.result == rows.greedy_fast.result);

  const MaterializedSet start = rows.greedy_fast.result;
  const auto local_run = [&](auto& engine) {
    return run_local_search(eval, engine, start);
  };
  rows.local_legacy = measure<LegacyEngine>(eval, local_run, min_secs);
  rows.local_fast = measure<FastEngine>(eval, local_run, min_secs);
  MVD_ASSERT(rows.local_legacy.result == rows.local_fast.result);
  return rows;
}

Json algo_json(const Measured& legacy, const Measured& fast) {
  Json j = Json::object();
  Json l = Json::object();
  l.set("wall_secs", Json::number(legacy.secs));
  l.set("evaluations", Json::number(legacy.evals));
  l.set("evals_per_sec", Json::number(legacy.evals_per_sec()));
  l.set("reps", Json::number(legacy.reps));
  Json f = Json::object();
  f.set("wall_secs", Json::number(fast.secs));
  f.set("evaluations", Json::number(fast.evals));
  f.set("evals_per_sec", Json::number(fast.evals_per_sec()));
  f.set("reps", Json::number(fast.reps));
  j.set("legacy", std::move(l));
  j.set("fast", std::move(f));
  j.set("speedup_evals_per_sec",
        Json::number(fast.evals_per_sec() / legacy.evals_per_sec()));
  j.set("same_result", Json::boolean(legacy.result == fast.result));
  return j;
}

void add_row(TextTable& table, const std::string& name, std::size_t ops,
             const ProbeRows& r) {
  table.add_row(
      {name, std::to_string(ops),
       format_blocks(r.greedy_legacy.evals_per_sec()),
       format_blocks(r.greedy_fast.evals_per_sec()),
       fmt1(r.greedy_fast.evals_per_sec() / r.greedy_legacy.evals_per_sec()) +
           "x",
       format_blocks(r.local_legacy.evals_per_sec()),
       format_blocks(r.local_fast.evals_per_sec()),
       fmt1(r.local_fast.evals_per_sec() / r.local_legacy.evals_per_sec()) +
           "x"});
}

}  // namespace

int main() {
  const double kMinSecs = 0.15;
  std::vector<WorkloadCase> cases;
  cases.push_back(chain_case(5, 3, 19));
  cases.push_back(star_case(2, 3, 3));
  cases.push_back(star_case(2, 4, 3));
  cases.push_back(chain_case(6, 6, 13));
  cases.push_back(star_case(3, 5, 1));
  cases.push_back(star_case(3, 8, 2));
  cases.push_back(star_case(4, 8, 5));
  cases.push_back(chain_case(8, 10, 17));

  Json report = Json::object();
  report.set("bench", Json::string("selection_scaling"));
  report.set("hardware_threads",
             Json::number(static_cast<std::size_t>(
                 std::thread::hardware_concurrency())));
  Json workloads = Json::array();

  TextTable table({"workload", "ops", "greedy legacy e/s", "greedy fast e/s",
                   "speedup", "local legacy e/s", "local fast e/s",
                   "speedup"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  std::cout << "Ext-I — cost-evaluation fast path, probing throughput\n\n";
  for (const WorkloadCase& w : cases) {
    const MvppEvaluator eval(w.graph);
    const DistributedMvppEvaluator dist(w.graph, three_sites(w.graph));
    const std::size_t ops = w.graph.operation_ids().size();
    const ProbeRows central = measure_probes(eval, kMinSecs);
    const ProbeRows distributed = measure_probes(dist, kMinSecs);

    Json entry = Json::object();
    entry.set("workload", Json::string(w.name));
    entry.set("operation_nodes", Json::number(ops));
    entry.set("graph_nodes", Json::number(w.graph.size()));
    entry.set("greedy",
              algo_json(central.greedy_legacy, central.greedy_fast));
    entry.set("local_search",
              algo_json(central.local_legacy, central.local_fast));
    Json dist_json = Json::object();
    dist_json.set("sites", Json::number(dist.topology().sites().size()));
    dist_json.set("greedy", algo_json(distributed.greedy_legacy,
                                      distributed.greedy_fast));
    dist_json.set("local_search", algo_json(distributed.local_legacy,
                                            distributed.local_fast));
    entry.set("distributed", std::move(dist_json));

    // Exhaustive: serial vs parallel over the same fast engine, with a
    // bit-identical deterministic reduction.
    if (ops <= 20) {
      const auto t_serial = std::chrono::steady_clock::now();
      const SelectionResult serial = exhaustive_optimal(eval, 24, 1);
      const double serial_secs = secs_since(t_serial);
      const auto t_parallel = std::chrono::steady_clock::now();
      const SelectionResult parallel = exhaustive_optimal(eval, 24, 0);
      const double parallel_secs = secs_since(t_parallel);
      MVD_ASSERT(serial.materialized == parallel.materialized);
      MVD_ASSERT(serial.costs.total() == parallel.costs.total());
      Json ex = Json::object();
      ex.set("subsets", Json::number(std::size_t{1} << ops));
      ex.set("serial_secs", Json::number(serial_secs));
      ex.set("parallel_secs", Json::number(parallel_secs));
      ex.set("parallel_speedup", Json::number(serial_secs / parallel_secs));
      ex.set("identical_result", Json::boolean(true));
      entry.set("exhaustive", std::move(ex));
    }

    workloads.push_back(std::move(entry));
    add_row(table, w.name, ops, central);
    add_row(table, w.name + " @3 sites", ops, distributed);
  }
  report.set("workloads", std::move(workloads));

  std::cout << table.render() << '\n';

  std::ofstream out("BENCH_selection.json");
  out << report.dump(2) << '\n';
  std::cout << "wrote BENCH_selection.json\n";
  return 0;
}
