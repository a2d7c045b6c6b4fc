// Tests for the observability subsystem (src/obs): registry semantics,
// histogram bucket edges, the snapshot diff algebra, span nesting, the
// Chrome trace-event JSON shape, and the counters one refresh round
// publishes. ObsTsanTest is additionally run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "tests/refresh_workloads.hpp"

namespace mvd {
namespace {

/// Scoped trace-level override; restores env resolution on exit.
class ScopedTraceLevel {
 public:
  explicit ScopedTraceLevel(TraceLevel level) { set_trace_level(level); }
  ~ScopedTraceLevel() { set_trace_level(std::nullopt); }
};

TEST(ObsMetricsTest, CounterGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a/b/c");
  c.add(2.5);
  c.increment();
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Re-requesting a name returns the same handle.
  EXPECT_EQ(&reg.counter("a/b/c"), &c);

  Gauge& g = reg.gauge("a/b/g");
  g.set(7);
  g.set(4);
  EXPECT_DOUBLE_EQ(g.value(), 4);
}

TEST(ObsMetricsTest, KindCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), PlanError);
  EXPECT_THROW(reg.histogram("x", {1, 2}), PlanError);
}

TEST(ObsMetricsTest, HistogramBucketEdges) {
  MetricsRegistry reg;
  // Inclusive upper edges: v lands in the first bucket with v <= bound;
  // above the last bound goes to the implicit overflow bucket.
  Histogram& h = reg.histogram("h", {1.0, 10.0, 100.0});
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);    // inclusive edge
  EXPECT_EQ(h.bucket_index(1.0001), 1u);
  EXPECT_EQ(h.bucket_index(10.0), 1u);
  EXPECT_EQ(h.bucket_index(100.0), 2u);
  EXPECT_EQ(h.bucket_index(1e9), 3u);    // overflow

  h.observe(0.5);
  h.observe(1.0);
  h.observe(50.0);
  h.observe(1000.0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 0u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1051.5);

  // Bulk merge of locally tallied buckets.
  h.observe_bucketed({1, 0, 0, 0}, 0.25);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1051.75);
}

TEST(ObsMetricsTest, SnapshotDiffAlgebra) {
  MetricsRegistry reg;
  reg.counter("c").add(10);
  reg.gauge("g").set(1);
  reg.histogram("h", {5.0}).observe(3);

  const MetricsSnapshot before = reg.snapshot();
  reg.counter("c").add(7);
  reg.gauge("g").set(42);
  reg.histogram("h", {5.0}).observe(100);
  reg.counter("fresh").add(2);  // absent from `before`
  const MetricsSnapshot after = reg.snapshot();

  const MetricsSnapshot d = after.diff(before);
  // Counters subtract; gauges keep the later value; new metrics pass
  // through unchanged.
  EXPECT_DOUBLE_EQ(d.value_of("c").value_or(-1), 7);
  EXPECT_DOUBLE_EQ(d.value_of("g").value_or(-1), 42);
  EXPECT_DOUBLE_EQ(d.value_of("fresh").value_or(-1), 2);
  // Histogram buckets subtract too.
  const MetricValue& h = d.metrics.at("h");
  ASSERT_EQ(h.bucket_counts.size(), 2u);
  EXPECT_EQ(h.bucket_counts[0], 0u);  // 3 was already there
  EXPECT_EQ(h.bucket_counts[1], 1u);  // the overflow observe(100)
  EXPECT_EQ(h.count, 1u);

  EXPECT_FALSE(d.value_of("missing").has_value());
  EXPECT_TRUE(d.contains("c"));

  // Render paths stay in sync with the metric set.
  EXPECT_NE(d.render_text().find("fresh"), std::string::npos);
  const Json j = d.to_json();
  EXPECT_TRUE(j.at("metrics").contains("c"));
}

TEST(ObsMetricsTest, ResetDropsEverything) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  reg.reset();
  EXPECT_TRUE(reg.snapshot().metrics.empty());
}

TEST(ObsTraceTest, SpanNestingAndChromeJsonRoundTrip) {
  ScopedTraceLevel level(TraceLevel::kSpans);
  Tracer& tracer = Tracer::global();
  tracer.clear();

  {
    TraceSpan outer("test", "outer");
    outer.arg("n", 3.0);
    outer.arg("label", std::string("abc"));
    { TraceSpan inner("test", "inner"); }
    { MVD_TRACE_SPAN("test", "macro-span"); }
    tracer.counter("test/gauge", 5.0);
  }
  EXPECT_GE(tracer.event_count(), 3u);

  // The document must round-trip through the repo's own JSON parser and
  // carry the Chrome trace-event shape Perfetto expects.
  const std::string text = tracer.to_chrome_json().dump();
  const Json doc = Json::parse(text);
  ASSERT_TRUE(doc.contains("traceEvents"));
  const Json& events = doc.at("traceEvents");
  bool saw_meta = false, saw_outer = false, saw_inner = false,
       saw_macro = false, saw_counter = false;
  double outer_ts = 0, outer_dur = 0, inner_ts = 0, inner_dur = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") saw_meta = true;
    if (ph == "X" && e.at("name").as_string() == "outer") {
      saw_outer = true;
      outer_ts = e.at("ts").as_number();
      outer_dur = e.at("dur").as_number();
      EXPECT_EQ(e.at("cat").as_string(), "test");
      EXPECT_DOUBLE_EQ(e.at("args").at("n").as_number(), 3.0);
      EXPECT_EQ(e.at("args").at("label").as_string(), "abc");
    }
    if (ph == "X" && e.at("name").as_string() == "inner") {
      saw_inner = true;
      inner_ts = e.at("ts").as_number();
      inner_dur = e.at("dur").as_number();
    }
    if (ph == "X" && e.at("name").as_string() == "macro-span") {
      saw_macro = true;
    }
    if (ph == "C" && e.at("name").as_string() == "test/gauge") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(e.at("args").at("value").as_number(), 5.0);
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_macro);
  EXPECT_TRUE(saw_counter);
  // RAII scoping means the inner span nests strictly inside the outer.
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-6);
  tracer.clear();
}

TEST(ObsTraceTest, SpansAreFreeWhenOff) {
  set_trace_level(TraceLevel::kOff);
  Tracer& tracer = Tracer::global();
  tracer.clear();
  const std::size_t before = tracer.event_count();
  {
    MVD_TRACE_SPAN("test", "invisible");
    TraceSpan span("test", "also-invisible");
    EXPECT_FALSE(span.active());
    span.arg("n", 1.0);
  }
  EXPECT_EQ(tracer.event_count(), before);
  set_trace_level(std::nullopt);
}

// Run under ThreadSanitizer in CI: four threads hammer the same
// counter/gauge/histogram handles plus first-use creation through the
// registry mutex, and the tracer's per-thread buffers record spans
// concurrently with a snapshot/gather from the main thread.
TEST(ObsTsanTest, ConcurrentRegistryAndTracerAreRaceFree) {
  ScopedTraceLevel level(TraceLevel::kSpans);
  MetricsRegistry reg;
  Tracer& tracer = Tracer::global();
  tracer.clear();

  constexpr int kThreads = 4;
  constexpr int kIters = 2'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      Counter& c = reg.counter("shared/counter");
      Histogram& h = reg.histogram("shared/hist", {10.0, 100.0});
      for (int i = 0; i < kIters; ++i) {
        c.increment();
        reg.gauge("shared/gauge").set(static_cast<double>(i));
        h.observe(static_cast<double>(i % 200));
        // First-use creation races through the registry mutex.
        reg.counter("shared/per-thread/" + std::to_string(t)).increment();
        TraceSpan span("tsan", "work");
        span.arg("i", static_cast<double>(i));
      }
    });
  }
  // Concurrent snapshot + gather while workers are recording.
  for (int i = 0; i < 50; ++i) {
    (void)reg.snapshot();
    (void)tracer.event_count();
  }
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot s = reg.snapshot();
  EXPECT_DOUBLE_EQ(s.value_of("shared/counter").value_or(0),
                   static_cast<double>(kThreads * kIters));
  EXPECT_EQ(s.metrics.at("shared/hist").count,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_GE(tracer.event_count(),
            static_cast<std::size_t>(kThreads * kIters));
  (void)tracer.to_chrome_json();
  tracer.clear();
}

// One incremental round on the paper warehouse while a copy still shares
// every table: each view that applies a non-empty row delta clones its
// table once (group-applied and recomputed views store a new table
// instead), and each full side a join term probes is either a stored
// table read in place or a plan the engine runs. In this round two views
// apply rows (1,226 stored rows cloned between them); their join terms
// probe two stored sides in place and run one computed side.
TEST(ObsRefreshTest, OneRoundCountsClonesAndFullSides) {
  RefreshWorkload w = make_paper_workload();
  const MvppGraph& g = w.design.graph();
  MaterializedSet& m = w.design.selection.materialized;
  for (NodeId q : g.query_ids()) m.insert(g.node(q).children[0]);
  for (NodeId v : m) deploy_view(g, v, m, w.db, ExecMode::kRow, 1);
  Rng rng(107);
  DeltaSet batch;
  for (const char* relation : {"Order", "Product"}) {
    apply_update_batch(w.db, relation, mixed_updates(), rng, &batch);
  }
  const Database held = w.db;

  const ScopedTraceLevel counters(TraceLevel::kCounters);
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const RefreshReport report =
      incremental_refresh(g, m, w.db, batch, nullptr, ExecMode::kRow, 1);
  const MetricsSnapshot round =
      MetricsRegistry::global().snapshot().diff(before);
  const auto count = [&](const char* name) {
    return round.value_of(name).value_or(0);
  };

  double applied = 0;
  double rows = 0;
  for (const ViewRefresh& v : report.views) {
    if (v.path != RefreshPath::kApplied || v.delta_rows == 0) continue;
    applied += 1;
    rows += static_cast<double>(held.table(v.view).row_count());
  }
  EXPECT_EQ(count("storage/cow/clones"), applied);
  EXPECT_EQ(count("storage/cow/rows_cloned"), rows);
  EXPECT_EQ(count("storage/cow/clones"), 2);
  EXPECT_EQ(count("storage/cow/rows_cloned"), 1226);
  EXPECT_EQ(count("maintenance/refresh/full_sides_in_place"), 2);
  EXPECT_EQ(count("maintenance/refresh/full_sides_executed"), 1);
  EXPECT_EQ(count("maintenance/refresh/rounds"), 1);
}

}  // namespace
}  // namespace mvd
