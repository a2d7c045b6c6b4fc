// Workload-observatory tests: query fingerprinting, the decayed
// sliding-window recurrence, journal JSONL round-trips and corrupt-line
// recovery, the bounded ring, observatory state transitions
// (hit/miss/refusal tallies, staleness ages, refresh clearing), drift
// vs the declared catalog annotations, histogram percentiles, and the
// replay contract — a journal re-recorded through a fresh observatory
// reproduces every gauge bit-for-bit, including after multi-threaded
// traffic (WorkloadObsTsanTest, also run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.hpp"
#include "src/exec/executor.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/workload.hpp"
#include "src/optimizer/view_rewrite.hpp"
#include "src/serve/server.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

// ---- Fingerprints -----------------------------------------------------

class FingerprintTest : public ::testing::Test {
 protected:
  FingerprintTest() : catalog_(make_paper_catalog()) {}

  QuerySpec query(const std::string& name, const std::string& sql) const {
    return parse_and_bind(catalog_, name, 1.0, sql);
  }

  Catalog catalog_;
};

TEST_F(FingerprintTest, StableUnderFromWhereReorderAndRenaming) {
  const QuerySpec a =
      query("A",
            "SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const QuerySpec b =
      query("B",
            "SELECT Customer.city, date FROM Customer, Order "
            "WHERE Order.Cid = Customer.Cid AND quantity > 100");
  EXPECT_EQ(query_fingerprint(a), query_fingerprint(b));
}

TEST_F(FingerprintTest, DistinguishesPredicateAndShape) {
  const QuerySpec base =
      query("Q", "SELECT name FROM Division WHERE city = 'LA'");
  const QuerySpec other_pred =
      query("Q", "SELECT name FROM Division WHERE city = 'SF'");
  const QuerySpec other_proj =
      query("Q", "SELECT city FROM Division WHERE city = 'LA'");
  EXPECT_NE(query_fingerprint(base), query_fingerprint(other_pred));
  EXPECT_NE(query_fingerprint(base), query_fingerprint(other_proj));
}

TEST_F(FingerprintTest, AggregationEntersTheFingerprint) {
  const QuerySpec spj =
      query("Q",
            "SELECT Customer.city FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid");
  const QuerySpec agg =
      query("Q",
            "SELECT Customer.city, SUM(quantity) FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city");
  EXPECT_NE(query_fingerprint(spj), query_fingerprint(agg));
  EXPECT_NE(query_fingerprint(agg).find(" G["), std::string::npos);
}

TEST(FingerprintIdTest, ShortStableHexForm) {
  const std::string id = fingerprint_id("R[Order] J[] S[] P[date]");
  ASSERT_EQ(id.size(), 17u);
  EXPECT_EQ(id[0], 'q');
  for (std::size_t i = 1; i < id.size(); ++i) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(id[i]))) << id;
  }
  EXPECT_EQ(id, fingerprint_id("R[Order] J[] S[] P[date]"));
  EXPECT_NE(id, fingerprint_id("R[Order] J[] S[] P[city]"));
}

// ---- Decayed window ---------------------------------------------------

TEST(WindowedNowTest, AppliesExactDecayRecurrence) {
  // α = 1 − 1/W = 0.75 for W = 4.
  EXPECT_DOUBLE_EQ(windowed_now(1.0, 1, 2, 4), 0.75);
  EXPECT_DOUBLE_EQ(windowed_now(2.0, 3, 5, 4), 2.0 * 0.75 * 0.75);
  // Same clock, zero window: no decay applied.
  EXPECT_DOUBLE_EQ(windowed_now(2.5, 7, 7, 4), 2.5);
  EXPECT_DOUBLE_EQ(windowed_now(2.5, 7, 9, 0), 2.5);
}

TEST(WindowedNowTest, ObservatoryBumpsOnTheServeClock) {
  WorkloadObservatory obs(4);
  JournalEvent e;
  e.kind = EventKind::kServe;
  e.fingerprint = "fp";
  e.query = "Q";
  obs.record(e);  // w = 1 at serve clock 1
  obs.record(e);  // w = 1·0.75 + 1 = 1.75
  obs.record(e);  // w = 1.75·0.75 + 1 = 2.3125
  const WorkloadStats stats = obs.stats();
  const QueryObservation& q = stats.queries.at("fp");
  EXPECT_DOUBLE_EQ(q.windowed, 2.3125);
  EXPECT_EQ(q.windowed_at, 3u);
  EXPECT_EQ(q.count, 3u);
}

// ---- Journal serialization & recovery ---------------------------------

std::vector<JournalEvent> one_of_each_kind() {
  std::vector<JournalEvent> events;
  JournalEvent open;
  open.kind = EventKind::kOpen;
  open.window = 256;
  events.push_back(open);

  JournalEvent dq;
  dq.kind = EventKind::kDeclareQuery;
  dq.query = "Q1";
  dq.frequency = 12.5;
  events.push_back(dq);

  JournalEvent du;
  du.kind = EventKind::kDeclareUpdate;
  du.relation = "Order";
  du.frequency = 0.25;
  events.push_back(du);

  JournalEvent hit;
  hit.kind = EventKind::kServe;
  hit.epoch = 3;
  hit.query = "Q1";
  hit.fingerprint = "R[Order] J[] S[] P[date]";
  hit.rewritten = true;
  hit.view = "mv_q1";
  hit.engine = "vec";
  hit.latency_ms = 0.1875;  // exactly representable
  events.push_back(hit);

  JournalEvent miss;
  miss.kind = EventKind::kServe;
  miss.query = "adhoc";
  miss.fingerprint = "R[Division] J[] S[] P[name]";
  miss.engine = "row";
  miss.latency_ms = 2.5;
  miss.refusals = {{"mv_q1", "relation sets differ (view Order)"},
                   {"mv_q2", "containment not proved"}};
  miss.stale_views = {"mv_q3"};
  events.push_back(miss);

  JournalEvent ingest;
  ingest.kind = EventKind::kIngest;
  ingest.epoch = 4;
  ingest.relation = "Order";
  ingest.delta_rows = 48;
  ingest.marked_stale = {"mv_q1", "mv_q3"};
  events.push_back(ingest);

  JournalEvent refresh;
  refresh.kind = EventKind::kRefresh;
  refresh.epoch = 5;
  refresh.refreshed = {"mv_q1", "mv_q3"};
  refresh.mode = "incremental";
  events.push_back(refresh);

  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i + 1;
  return events;
}

TEST(JournalJsonTest, EveryKindRoundTripsThroughJsonl) {
  const std::vector<JournalEvent> events = one_of_each_kind();
  std::size_t corrupt = 77;
  const std::vector<JournalEvent> back =
      EventJournal::parse_jsonl(EventJournal::to_jsonl(events), &corrupt);
  EXPECT_EQ(corrupt, 0u);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << "event " << i;
  }
}

TEST(JournalJsonTest, CorruptLinesAreSkippedAndCounted) {
  const std::vector<JournalEvent> events = one_of_each_kind();
  std::string text = EventJournal::to_jsonl(events);
  // Splice garbage between intact lines: a torn write and a hand edit.
  const std::size_t first_nl = text.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  text.insert(first_nl + 1, "{\"kind\":\"serve\",\"latency\n");
  text.insert(0, "not json at all\n");
  std::size_t corrupt = 0;
  const std::vector<JournalEvent> back =
      EventJournal::parse_jsonl(text, &corrupt);
  EXPECT_EQ(corrupt, 2u);
  ASSERT_EQ(back.size(), events.size());
  EXPECT_EQ(back.front(), events.front());
  EXPECT_EQ(back.back(), events.back());
}

TEST(JournalJsonTest, TruncatedTailRecoversThePrefix) {
  const std::vector<JournalEvent> events = one_of_each_kind();
  std::string text = EventJournal::to_jsonl(events);
  // Chop mid-way through the final line (a crash mid-append).
  text.resize(text.size() - 10);
  std::size_t corrupt = 0;
  const std::vector<JournalEvent> back =
      EventJournal::parse_jsonl(text, &corrupt);
  EXPECT_EQ(corrupt, 1u);
  ASSERT_EQ(back.size(), events.size() - 1);
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]);
  }
}

TEST(JournalRingTest, BoundedRingKeepsTheTailAndCountsDrops) {
  EventJournal ring(4, std::string());
  for (int i = 1; i <= 10; ++i) {
    JournalEvent e;
    e.kind = EventKind::kServe;
    e.seq = static_cast<std::uint64_t>(i);
    ring.append(e);
  }
  EXPECT_EQ(ring.appended(), 10u);
  const std::vector<JournalEvent> tail = ring.events();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().seq, 7u);
  EXPECT_EQ(tail.back().seq, 10u);
}

// ---- Observatory state transitions ------------------------------------

TEST(ObservatoryTest, TalliesHitsMissesRefusalsAndStaleness) {
  WorkloadObservatory obs(16);
  obs.declare_query("Q1", 10);     // seq 1
  obs.declare_update("Order", 2);  // seq 2

  JournalEvent hit;
  hit.kind = EventKind::kServe;
  hit.query = "Q1";
  hit.fingerprint = "fp1";
  hit.rewritten = true;
  hit.view = "mv_q1";
  hit.latency_ms = 0.5;
  obs.record(hit);  // seq 3

  JournalEvent ingest;
  ingest.kind = EventKind::kIngest;
  ingest.relation = "Order";
  ingest.delta_rows = 40;
  ingest.marked_stale = {"mv_q1"};
  obs.record(ingest);  // seq 4 — mv_q1 stale from here

  JournalEvent miss;
  miss.kind = EventKind::kServe;
  miss.query = "Q1";
  miss.fingerprint = "fp1";
  miss.latency_ms = 1.5;
  miss.refusals = {{"mv_q2", "relation sets differ (view misses Order)"}};
  miss.stale_views = {"mv_q1"};
  obs.record(miss);  // seq 5

  {
    const WorkloadStats s = obs.stats();
    EXPECT_EQ(s.events, 5u);
    EXPECT_EQ(s.serves, 2u);
    EXPECT_EQ(s.ingests, 1u);
    const QueryObservation& q = s.queries.at("fp1");
    EXPECT_EQ(q.count, 2u);
    EXPECT_EQ(q.hits, 1u);
    EXPECT_EQ(q.misses, 1u);
    EXPECT_DOUBLE_EQ(q.latency_ms_sum, 2.0);
    EXPECT_EQ(q.first_seq, 3u);
    EXPECT_EQ(q.last_seq, 5u);

    const ViewObservation& v1 = s.views.at("mv_q1");
    EXPECT_EQ(v1.hits, 1u);
    EXPECT_EQ(v1.stale_serves, 1u);
    EXPECT_DOUBLE_EQ(v1.pending_delta_rows, 40.0);
    ASSERT_TRUE(v1.stale_since_seq.has_value());
    EXPECT_EQ(*v1.stale_since_seq, 4u);
    // Age in events since the staling ingest: 5 − 4.
    EXPECT_DOUBLE_EQ(s.to_gauges().at("workload/view/mv_q1/staleness_age"),
                     1.0);

    const ViewObservation& v2 = s.views.at("mv_q2");
    EXPECT_EQ(v2.refusals, 1u);
    EXPECT_EQ(v2.refusal_reasons.at("relations"), 1u);

    const RelationObservation& r = s.relations.at("Order");
    EXPECT_EQ(r.ingests, 1u);
    EXPECT_DOUBLE_EQ(r.delta_rows, 40.0);

    // Latency buckets: 0.5 lands in the (0.25, 0.5] bucket, 1.5 in
    // (1, 2.5].
    EXPECT_EQ(s.latency_counts[3], 1u);
    EXPECT_EQ(s.latency_counts[5], 1u);
    EXPECT_EQ(s.latency_count, 2u);
  }

  JournalEvent refresh;
  refresh.kind = EventKind::kRefresh;
  refresh.refreshed = {"mv_q1"};
  refresh.mode = "incremental";
  obs.record(refresh);  // seq 6

  const WorkloadStats s = obs.stats();
  EXPECT_EQ(s.refreshes, 1u);
  const ViewObservation& v1 = s.views.at("mv_q1");
  EXPECT_EQ(v1.refreshes, 1u);
  EXPECT_DOUBLE_EQ(v1.pending_delta_rows, 0.0);
  EXPECT_EQ(v1.stale_serves, 0u);
  EXPECT_EQ(v1.stale_serves_total, 1u);  // lifetime tally survives
  EXPECT_FALSE(v1.stale_since_seq.has_value());
  EXPECT_DOUBLE_EQ(s.to_gauges().at("workload/view/mv_q1/staleness_age"),
                   0.0);
}

// ---- Drift ------------------------------------------------------------

JournalEvent named_serve(const std::string& name) {
  JournalEvent e;
  e.kind = EventKind::kServe;
  e.query = name;
  e.fingerprint = "fp:" + name;
  return e;
}

TEST(DriftTest, ZeroTrafficMeansZeroEvidenceOfDrift) {
  WorkloadObservatory obs(16);
  obs.declare_query("Q1", 5);
  obs.declare_update("Order", 2);
  const DriftReport drift = obs.drift();
  EXPECT_DOUBLE_EQ(drift.fq_distance, 0.0);
  EXPECT_DOUBLE_EQ(drift.fu_distance, 0.0);
  ASSERT_EQ(drift.queries.size(), 1u);
  EXPECT_DOUBLE_EQ(drift.queries[0].declared_share, 1.0);
  EXPECT_DOUBLE_EQ(drift.queries[0].observed_share, 0.0);
}

TEST(DriftTest, TrafficMatchingDeclaredSharesScoresZero) {
  WorkloadObservatory obs(16);
  obs.declare_query("Q1", 3);
  obs.declare_query("Q2", 1);
  for (int i = 0; i < 3; ++i) obs.record(named_serve("Q1"));
  obs.record(named_serve("Q2"));
  EXPECT_DOUBLE_EQ(obs.drift().fq_distance, 0.0);
  EXPECT_DOUBLE_EQ(obs.drift().unmatched_serve_share, 0.0);
}

TEST(DriftTest, DisjointTrafficScoresOne) {
  WorkloadObservatory obs(16);
  obs.declare_query("Q1", 5);
  obs.record(named_serve("adhoc"));
  obs.record(named_serve("adhoc"));
  const DriftReport drift = obs.drift();
  EXPECT_DOUBLE_EQ(drift.fq_distance, 1.0);
  EXPECT_DOUBLE_EQ(drift.unmatched_serve_share, 1.0);
}

TEST(DriftTest, UnmatchedServesFormAnExtraBucket) {
  WorkloadObservatory obs(16);
  obs.declare_query("Q1", 1);
  obs.record(named_serve("Q1"));
  obs.record(named_serve("adhoc"));
  const DriftReport drift = obs.drift();
  // Declared {Q1: 1} vs observed {Q1: ½, adhoc: ½}:
  // (|1 − ½| + ½) / 2 = ½.
  EXPECT_DOUBLE_EQ(drift.unmatched_serve_share, 0.5);
  EXPECT_DOUBLE_EQ(drift.fq_distance, 0.5);
}

// ---- Replay -----------------------------------------------------------

TEST(ReplayTest, ReplayReproducesGaugesBitForBit) {
  WorkloadObservatory live(8);
  live.attach_journal(std::make_shared<EventJournal>(1024, std::string()));
  live.declare_query("Q1", 10);
  live.declare_update("Order", 2);
  for (int i = 0; i < 12; ++i) {
    JournalEvent e = named_serve(i % 3 == 0 ? "adhoc" : "Q1");
    e.rewritten = i % 2 == 0;
    e.view = e.rewritten ? "mv_q1" : "";
    e.engine = "row";
    e.latency_ms = 0.125 * (i + 1);
    if (!e.rewritten) e.stale_views = {"mv_q1"};
    live.record(e);
    if (i % 4 == 3) {
      JournalEvent ing;
      ing.kind = EventKind::kIngest;
      ing.relation = "Order";
      ing.delta_rows = 8 + i;
      ing.marked_stale = {"mv_q1"};
      live.record(ing);
    }
  }
  JournalEvent refresh;
  refresh.kind = EventKind::kRefresh;
  refresh.refreshed = {"mv_q1"};
  refresh.mode = "recompute";
  live.record(refresh);

  // Through the JSONL text too — the on-disk form must replay equally.
  std::size_t corrupt = 0;
  const std::vector<JournalEvent> events = EventJournal::parse_jsonl(
      EventJournal::to_jsonl(live.journal()->events()), &corrupt);
  EXPECT_EQ(corrupt, 0u);
  const std::unique_ptr<WorkloadObservatory> replayed =
      replay_journal(events);
  EXPECT_EQ(replayed->window(), 8u);  // taken from the kOpen event
  EXPECT_EQ(replayed->stats().to_gauges(), live.stats().to_gauges());
}

TEST(ReplayTest, EditedEventBreaksTheEquality) {
  WorkloadObservatory live(8);
  live.attach_journal(std::make_shared<EventJournal>(64, std::string()));
  for (int i = 0; i < 3; ++i) {
    JournalEvent e = named_serve("Q1");
    e.latency_ms = 1.0;
    live.record(e);
  }
  std::vector<JournalEvent> tampered = live.journal()->events();
  tampered[1].latency_ms += 0.5;
  EXPECT_NE(replay_journal(tampered)->stats().to_gauges(),
            live.stats().to_gauges());
}

// ---- Percentiles ------------------------------------------------------

TEST(HistogramPercentileTest, InterpolatesWithinBuckets) {
  const std::vector<double> bounds = {1, 2, 4};
  // 10 observations in (1, 2], none elsewhere.
  const std::vector<std::uint64_t> counts = {0, 10, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 10, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 10, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 10, 0.0), 1.0);
}

TEST(HistogramPercentileTest, EmptyAndOverflowEdges) {
  const std::vector<double> bounds = {1, 2, 4};
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, {0, 0, 0, 0}, 0, 0.5), 0.0);
  // Everything overflowed: the estimate saturates at the last bound.
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, {0, 0, 0, 5}, 5, 0.5), 4.0);
  // Split low/overflow: p99 saturates, p25 interpolates in the first.
  const std::vector<std::uint64_t> split = {4, 0, 0, 4};
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, split, 8, 0.99), 4.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, split, 8, 0.25), 0.5);
}

TEST(HistogramPercentileTest, NonHistogramMetricValueReportsZero) {
  MetricValue counter;
  counter.kind = MetricKind::kCounter;
  counter.value = 42;
  EXPECT_DOUBLE_EQ(counter.percentile(0.5), 0.0);

  MetricValue hist;
  hist.kind = MetricKind::kHistogram;
  hist.bucket_bounds = {1, 2};
  hist.bucket_counts = {2, 0, 0};
  hist.count = 2;
  EXPECT_DOUBLE_EQ(hist.percentile(0.5), 0.5);
}

// ---- Refusal codes & engine names -------------------------------------

TEST(RefusalCodeTest, BucketsMatcherReasonsStably) {
  EXPECT_EQ(refusal_code("relation sets differ (view joins Customer)"),
            "relations");
  EXPECT_EQ(refusal_code("containment not proved for conjunct q > 10"),
            "containment");
  EXPECT_EQ(refusal_code("projection column not stored: date"),
            "projection");
  EXPECT_EQ(refusal_code("avg cannot roll up without a stored count"),
            "avg-rollup");
  EXPECT_EQ(refusal_code("SPJ query over an aggregate view"),
            "spj-over-aggregate");
  EXPECT_EQ(refusal_code("something the matcher never says"), "other");
}

TEST(ExecModeNameTest, NamesEveryEngine) {
  EXPECT_STREQ(exec_mode_name(ExecMode::kRow), "row");
  EXPECT_STREQ(exec_mode_name(ExecMode::kVectorized), "vec");
}

// ---- MvServer integration ---------------------------------------------

class WorkloadServerTest : public ::testing::Test {
 protected:
  WorkloadServerTest() {
    // The server's journal must stay ring-only regardless of the test
    // environment.
    unsetenv("MVD_JOURNAL");
    DesignerOptions options;
    options.cost = paper_cost_config();
    designer_ =
        std::make_unique<WarehouseDesigner>(make_paper_catalog(), options);
    for (const QuerySpec& q : make_paper_example().queries) {
      designer_->add_query(q);
    }
    design_ = designer_->design();
    const MvppGraph& g = design_.graph();
    for (const NodeId q : g.query_ids()) {
      design_.selection.materialized.insert(g.node(q).children[0]);
    }
    ServeOptions serve;
    serve.mode = ExecMode::kRow;
    serve.threads = 1;
    serve.observe = true;
    server_ = std::make_unique<MvServer>(designer_->catalog(), design_,
                                         populate_paper_database(0.02, 23),
                                         serve);
  }

  std::string view_of(const std::string& query_name) const {
    const MvppGraph& g = design_.graph();
    const NodeId q = g.find_by_name(query_name);
    return g.node(g.node(q).children[0]).name;
  }

  std::unique_ptr<WarehouseDesigner> designer_;
  DesignResult design_;
  std::unique_ptr<MvServer> server_;
};

TEST_F(WorkloadServerTest, ConstructionSeedsDeclaredWorkload) {
  WorkloadObservatory* obs = server_->observatory();
  ASSERT_NE(obs, nullptr);
  const WorkloadStats s = obs->stats();
  EXPECT_EQ(s.declared_fq.size(), design_.graph().query_ids().size());
  EXPECT_GT(s.declared_fu.size(), 0u);
  EXPECT_EQ(s.serves, 0u);
  // Zero traffic so far: no drift evidence.
  EXPECT_DOUBLE_EQ(obs->drift().fq_distance, 0.0);
}

TEST_F(WorkloadServerTest, ServeIngestRefreshDriveTheObservatory) {
  const QuerySpec& q1 = designer_->queries()[0];
  const QuerySpec& q4 = designer_->queries()[3];
  const std::string fp4 = query_fingerprint(q4);

  const ServeResult hit = server_->serve(q4);
  ASSERT_TRUE(hit.rewritten);
  EXPECT_EQ(hit.engine, "row");
  EXPECT_TRUE(hit.refusals.empty());

  Rng rng(99);
  server_->ingest("Order", {}, rng);

  const ServeResult stale = server_->serve(q4);
  EXPECT_FALSE(stale.rewritten);

  WorkloadObservatory* obs = server_->observatory();
  ASSERT_NE(obs, nullptr);
  {
    const WorkloadStats s = obs->stats();
    const QueryObservation& q = s.queries.at(fp4);
    EXPECT_EQ(q.count, 2u);
    EXPECT_EQ(q.hits, 1u);
    EXPECT_EQ(q.misses, 1u);
    const ViewObservation& v = s.views.at(view_of("Q4"));
    EXPECT_EQ(v.hits, 1u);
    EXPECT_EQ(v.stale_serves, 1u);  // the fallback found its view stale
    EXPECT_GT(v.pending_delta_rows, 0.0);
    EXPECT_TRUE(v.stale_since_seq.has_value());
    EXPECT_EQ(s.relations.at("Order").ingests, 1u);
  }

  // An uncovered ad-hoc query: refusals surface in the result and the
  // per-view tallies.
  const ServeResult uncovered =
      server_->serve("SELECT name FROM Division WHERE city = 'LA'");
  EXPECT_FALSE(uncovered.rewritten);
  EXPECT_FALSE(uncovered.refusals.empty());
  for (const ServeRefusal& r : uncovered.refusals) {
    EXPECT_FALSE(r.view.empty());
    EXPECT_FALSE(r.reason.empty());
  }

  server_->refresh(RefreshMode::kRecompute);
  ASSERT_TRUE(server_->serve(q4).rewritten);
  ASSERT_TRUE(server_->serve(q1).rewritten);

  const WorkloadStats s = obs->stats();
  const ViewObservation& v = s.views.at(view_of("Q4"));
  EXPECT_GE(v.refreshes, 1u);
  EXPECT_DOUBLE_EQ(v.pending_delta_rows, 0.0);
  EXPECT_EQ(v.stale_serves, 0u);
  EXPECT_FALSE(v.stale_since_seq.has_value());
  EXPECT_EQ(s.refreshes, 1u);
  EXPECT_GT(s.latency_count, 0u);

  // The ring held every event of this short run: replay must agree
  // bit-for-bit.
  const std::unique_ptr<WorkloadObservatory> replayed =
      replay_journal(obs->journal()->events());
  EXPECT_EQ(replayed->stats().to_gauges(), obs->stats().to_gauges());
}

// ---- Concurrency (run under TSan in CI) --------------------------------

class WorkloadObsTsanTest : public ::testing::Test {};

TEST_F(WorkloadObsTsanTest, ConcurrentRecordsReplayBitForBit) {
  WorkloadObservatory live(32);
  live.attach_journal(std::make_shared<EventJournal>(1 << 14, std::string()));
  live.declare_query("Q1", 10);
  live.declare_update("Order", 2);

  constexpr int kReaders = 4;
  constexpr int kPerThread = 200;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&live, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JournalEvent e = named_serve(i % 2 == 0 ? "Q1" : "adhoc");
        e.rewritten = (t + i) % 3 != 0;
        e.view = e.rewritten ? "mv_q1" : "";
        e.latency_ms = 0.25 * ((t + i) % 7);
        if (!e.rewritten) e.refusals = {{"mv_q2", "relation sets differ"}};
        live.record(e);
      }
    });
  }
  std::thread writer([&live] {
    for (int i = 0; i < 20; ++i) {
      JournalEvent ing;
      ing.kind = EventKind::kIngest;
      ing.relation = "Order";
      ing.delta_rows = 4;
      ing.marked_stale = {"mv_q1"};
      live.record(ing);
      JournalEvent refresh;
      refresh.kind = EventKind::kRefresh;
      refresh.refreshed = {"mv_q1"};
      refresh.mode = "incremental";
      live.record(refresh);
    }
  });
  std::thread snapshotter([&live, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const WorkloadStats s = live.stats();
      EXPECT_LE(s.serves + s.ingests + s.refreshes, s.events);
      (void)compute_drift(s);
    }
  });
  for (std::thread& t : threads) t.join();
  writer.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  const WorkloadStats s = live.stats();
  EXPECT_EQ(s.serves, static_cast<std::uint64_t>(kReaders * kPerThread));
  EXPECT_EQ(s.ingests, 20u);
  EXPECT_EQ(s.refreshes, 20u);

  // However the threads interleaved, the journal captured the one total
  // order that produced the live state.
  const std::unique_ptr<WorkloadObservatory> replayed =
      replay_journal(live.journal()->events());
  EXPECT_EQ(replayed->stats().to_gauges(), s.to_gauges());
}

TEST_F(WorkloadObsTsanTest, ServerTrafficUnderChurnReplaysExactly) {
  unsetenv("MVD_JOURNAL");
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(make_paper_catalog(), options);
  for (const QuerySpec& q : make_paper_example().queries) {
    designer.add_query(q);
  }
  DesignResult design = designer.design();
  const MvppGraph& g = design.graph();
  for (const NodeId q : g.query_ids()) {
    design.selection.materialized.insert(g.node(q).children[0]);
  }
  ServeOptions serve;
  serve.mode = ExecMode::kRow;
  serve.threads = 1;
  serve.observe = true;
  MvServer server(designer.catalog(), design,
                  populate_paper_database(0.02, 23), serve);

  const std::vector<QuerySpec> queries = designer.queries();
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&server, &queries, t] {
      for (int i = 0; i < 15; ++i) {
        server.serve(queries[(static_cast<std::size_t>(t) + i) %
                             queries.size()]);
      }
    });
  }
  std::thread writer([&server] {
    Rng rng(7);
    for (int r = 0; r < 4; ++r) {
      server.update_and_refresh(r % 2 == 0 ? "Order" : "Customer", {}, rng);
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();

  WorkloadObservatory* obs = server.observatory();
  ASSERT_NE(obs, nullptr);
  const WorkloadStats s = obs->stats();
  EXPECT_EQ(s.serves, 45u);
  EXPECT_EQ(s.ingests, 4u);

  const std::unique_ptr<WorkloadObservatory> replayed =
      replay_journal(obs->journal()->events());
  EXPECT_EQ(replayed->stats().to_gauges(), s.to_gauges());
}

}  // namespace
}  // namespace mvd
