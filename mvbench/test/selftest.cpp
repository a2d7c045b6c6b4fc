// Tests of the benchmark's own logic: the tail percentile, the clocks, the
// self-time arithmetic, stream determinism, and a smoke-size pass over every
// workload (traced and untraced) whose metric names must match
// BENCHMARK.json.
//
//   mvbench_selftest [path/to/BENCHMARK.json]
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mvbench/src/clocks.hpp"
#include "mvbench/src/runner.hpp"
#include "mvbench/src/stats.hpp"
#include "mvbench/src/trace.hpp"
#include "mvbench/src/workload.hpp"
#include "src/common/json.hpp"

using namespace mvbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tail() {
  // Ten samples strictly above the reported one, capped at p99.
  Tail t = tail(one_to(1000));
  check(near(t.value, 990) && near(t.percentile, 99.0) && t.samples == 1000,
        "tail of 1000 samples is p99");
  t = tail(one_to(5000));
  check(near(t.value, 4950) && near(t.percentile, 99.0), "tail caps at p99");
  t = tail(one_to(100));
  check(near(t.value, 90) && near(t.percentile, 90.0),
        "tail of 100 samples is p90");
  t = tail(one_to(40));
  check(near(t.value, 30) && near(t.percentile, 75.0),
        "tail of 40 samples is p75");
  t = tail(one_to(15));
  check(near(t.value, 8) && t.samples == 15,
        "tail of 15 samples falls back to the median");
  t = tail(one_to(4));
  check(near(t.value, 3), "a small sample's tail is not below its median");
  t = tail({});
  check(t.samples == 0 && near(t.value, 0), "tail of nothing");
  check(near(median(one_to(4)), 2.5) && near(median(one_to(5)), 3),
        "median");
}

void test_clocks() {
  const double speed = host_speed();
  check(std::isfinite(speed) && speed > 0.05 && speed < 20,
        "host_speed is a plausible factor");
  const double c0 = thread_cpu_us();
  const double p0 = process_cpu_us();
  volatile double x = 0;
  for (int i = 0; i < 1'000'000; ++i) x = x + 1;
  const double c1 = thread_cpu_us();
  check(c1 > c0, "the thread CPU clock advances");
  check(process_cpu_us() - p0 >= c1 - c0 - 1, "the process clock counts it");
}

void test_self_time() {
  SpanLog log;
  const std::uint64_t r1 = log.begin_request();
  const std::uint64_t root = log.add("serve", 0, r1, 0, 100);
  // Overlapping on-path children cover [10, 50]: 40 us.
  const std::uint64_t a = log.add("a", root, r1, 10, 30);
  log.add("b", root, r1, 20, 50);
  // A grandchild is charged to its parent only.
  log.add("c", a, r1, 12, 18);
  // Probe and reported children subtract their durations.
  log.add("p", root, r1, 200, 205, SpanKind::kProbe);
  const std::uint64_t rep =
      log.add("exec", root, r1, 93, 100, SpanKind::kReported);
  log.add("q", rep, r1, 300, 302, SpanKind::kProbe);
  // An on-path child sticking out of its parent counts only inside it.
  const std::uint64_t r2 = log.begin_request();
  const std::uint64_t root2 = log.add("serve", 0, r2, 0, 50);
  log.add("a", root2, r2, 40, 60);

  const std::vector<double> self = self_times(log.spans());
  check(near(self[0], 100 - 40 - 5 - 7), "serve self time");
  check(near(self[1], 20 - 6), "child self time");
  check(near(self[5], 7 - 2), "reported span minus its probe");
  check(near(self[7], 50 - 10), "child interval clipped to its parent");

  const std::map<std::string, LayerStat> layers = layer_stats(log.spans());
  check(layers.at("serve").ops == 2, "serve entered by two requests");
  check(near(layers.at("serve").p50_us, 75), "serve p50 over requests");
  check(near(layers.at("serve").self_p50_us, (48.0 + 40.0) / 2),
        "serve self p50 over requests");

  SpanLog other;
  const std::uint64_t r3 = other.begin_request();
  other.count("rows", r3, 4);
  other.count("rows", r3, 6);  // one request, two records: summed
  log.count("rows", r1, 1);
  log.count("rows", r2, 2);
  log.merge(std::move(other));
  check(r3 != r1 && r3 != r2, "request ids unique across logs");
  check(near(count_medians(log.counts()).at("rows"), 2), "count median");
}

void test_streams() {
  for (const Workload& wl : workloads()) {
    const Warehouse w = wl.make(true);
    auto sqls = [&](std::uint64_t seed) {
      mvd::Rng a(seed);
      std::vector<std::string> out;
      for (const Op& op : query_stream(w, 50, a)) out.push_back(op.sql);
      mvd::Rng batches(1);
      for (const Op& op : mixed_stream(w, 50, a, batches)) {
        out.push_back(op.update ? op.relation + std::to_string(op.seed)
                                : op.sql);
      }
      for (const Op& op : update_stream(w, 10, batches)) {
        out.push_back(op.relation + std::to_string(op.seed));
      }
      return out;
    };
    check(sqls(7) == sqls(7), wl.name + ": same seed, same stream");
    check(sqls(7) != sqls(8), wl.name + ": another seed, another stream");
  }

  // Apportionment: every prefix within one op of its exact share.
  const std::vector<double> weights{10, 0.5, 0.8, 5};
  const std::vector<std::size_t> picks = apportion(weights, 1630);
  std::vector<double> seen(weights.size(), 0);
  bool within = true;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    seen[picks[i]] += 1;
    for (std::size_t k = 0; k < weights.size(); ++k) {
      const double exact = static_cast<double>(i + 1) * weights[k] / 16.3;
      within = within && std::abs(seen[k] - exact) < 1.0 + 1e-9;
    }
  }
  check(within, "apportion keeps every prefix within one op");
  check(near(seen[0], 1000) && near(seen[1], 50) && near(seen[2], 80) &&
            near(seen[3], 500),
        "apportion is exact over a full cycle");
}

std::vector<std::string> names(const mvd::Json& list) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < list.size(); ++i) {
    out.push_back(list.at(i).at("name").as_string());
  }
  return out;
}

void test_smoke(const std::string& benchmark_json) {
  std::vector<std::string> e2e;
  std::vector<std::string> layers;
  std::vector<std::string> declared_workloads;
  if (!benchmark_json.empty()) {
    std::ifstream in(benchmark_json);
    std::stringstream text;
    text << in.rdbuf();
    check(static_cast<bool>(in), "read " + benchmark_json);
    const mvd::Json doc = mvd::Json::parse(text.str());
    e2e = names(doc.at("end_to_end"));
    layers = names(doc.at("per_layer"));
    declared_workloads = names(doc.at("workloads"));
    std::vector<std::string> ours;
    for (const Workload& w : workloads()) ours.push_back(w.name);
    check(declared_workloads == ours, "BENCHMARK.json names every workload");
  }
  for (const Workload& wl : workloads()) {
    for (const bool traced : {false, true}) {
      RunOptions options;
      options.seed = 3;
      options.seconds = 1;
      options.trace = traced;
      options.smoke = true;
      const RunResult r = run_workload(wl, options);
      const std::string what =
          wl.name + (traced ? " traced" : " untraced") + " smoke run";
      check(r.correct && r.failed == 0 && r.attempted > 0,
            what + " is correct: " + r.report.dump());
      std::vector<std::string> got;
      for (const Metric& m : r.metrics) {
        got.push_back(m.name);
        check(std::isfinite(m.value), what + ": " + m.name + " is finite");
        if (!traced) check(m.value > 0, what + ": " + m.name + " is > 0");
      }
      const std::vector<std::string>& want = traced ? layers : e2e;
      if (!want.empty()) {
        check(got == want, what + ": metrics match BENCHMARK.json");
      }
      const mvd::Json line = mvd::Json::parse(result_line(r));
      check(line.at("correct").as_bool() &&
                line.at("metrics").size() == got.size(),
            what + ": result line");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  test_tail();
  test_clocks();
  test_self_time();
  test_streams();
  test_smoke(argc > 1 ? argv[1] : "");
  if (g_failures == 0) std::cout << "mvbench selftest: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
