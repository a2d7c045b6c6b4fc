// WorkloadObservatory — observed-frequency telemetry for the serving
// warehouse.
//
// The paper's selection framework is parameterized by *declared* query
// frequencies fq(qi) and update frequencies fu(rj). This observatory
// turns live serve/ingest/refresh traffic into *observed* versions of
// the same numbers, the substrate the adaptive-selection roadmap item
// feeds back into the catalog:
//
//   * per-query-fingerprint frequency tracking — cumulative counts plus
//     an exponentially-decayed sliding-window count (window W serves,
//     decay factor 1 − 1/W per serve), so a drifted workload's recent
//     shape is visible next to its lifetime shape;
//   * per-deployed-view serving tallies — hits, refusals bucketed by
//     matcher reason (view_rewrite's refusal_code), and serves-while-
//     stale since the view's last refresh;
//   * per-view staleness — pending ingested delta rows and a staleness
//     age in events since the ingest that staled the view;
//   * per-relation observed update frequencies (cumulative + decayed);
//   * a drift report comparing observed fq/fu against the declared
//     catalog annotations by total-variation distance (normalized L1).
//
// Determinism contract: all state lives behind one mutex; record()
// assigns each event a sequence number and applies it under that lock,
// and the attached journal (src/obs/journal.hpp) receives events in the
// same order. Replaying the journal through replay_journal() therefore
// reproduces every gauge bit-for-bit — including the decayed windows,
// whose floating-point work depends only on the event order — no matter
// how many threads produced the live traffic. mvlint rule
// obs/journal-consistent enforces this equality.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/journal.hpp"

namespace mvd {

class QuerySpec;

/// Canonical identity of a query for frequency accounting: relations,
/// join edges and selection conjuncts in sorted order, plus the output
/// shape. Stable under FROM/WHERE reordering; insensitive to the query's
/// display name.
std::string query_fingerprint(const QuerySpec& query);

/// Short stable id for a fingerprint ("q" + 16 hex digits of FNV-1a) —
/// the key observed-frequency gauges are published under.
std::string fingerprint_id(const std::string& fingerprint);

/// Decay window (events) of an observatory constructed without one.
inline constexpr std::size_t kDefaultObsWindow = 512;

struct QueryObservation {
  std::string query;  // display name at first sighting
  std::uint64_t count = 0;
  std::uint64_t hits = 0;    // answered from a view
  std::uint64_t misses = 0;  // base-table fallback
  double latency_ms_sum = 0;
  /// Decayed sliding-window count, valid as of serve clock
  /// `windowed_at`: w ← w·(1−1/W)^(Δserves) + 1 on each occurrence.
  double windowed = 0;
  std::uint64_t windowed_at = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;

  friend bool operator==(const QueryObservation&,
                         const QueryObservation&) = default;
};

struct ViewObservation {
  std::uint64_t hits = 0;
  std::uint64_t refusals = 0;
  /// refusal_code(reason) -> count.
  std::map<std::string, std::uint64_t> refusal_reasons;
  /// Fallback serves that could have used this view had it been fresh,
  /// since its last refresh / in total.
  std::uint64_t stale_serves = 0;
  std::uint64_t stale_serves_total = 0;
  /// Ingested delta rows not yet folded in by a refresh.
  double pending_delta_rows = 0;
  std::uint64_t refreshes = 0;
  /// Event seq of the ingest that staled the view; empty when fresh.
  std::optional<std::uint64_t> stale_since_seq;

  friend bool operator==(const ViewObservation&,
                         const ViewObservation&) = default;
};

struct RelationObservation {
  std::uint64_t ingests = 0;
  double delta_rows = 0;
  /// Decayed window over the ingest clock (same recurrence as queries).
  double windowed = 0;
  std::uint64_t windowed_at = 0;
  std::uint64_t last_seq = 0;

  friend bool operator==(const RelationObservation&,
                         const RelationObservation&) = default;
};

/// Fixed serve-latency buckets of the observatory's histogram (upper
/// edges in ms; one implicit overflow bucket). mvstat reads percentiles
/// off them; mvprof's answer-latency histogram uses them too.
const std::vector<double>& serve_latency_bounds();

/// An immutable copy of the observatory's whole state. to_gauges() is
/// the flattened, exactly-comparable form the journal-consistency
/// certificate diffs.
struct WorkloadStats {
  std::size_t window = 0;
  std::uint64_t events = 0;  // total recorded (== last assigned seq)
  std::uint64_t serves = 0;
  std::uint64_t ingests = 0;
  std::uint64_t refreshes = 0;

  /// Declared catalog annotations (seeded through declare_*, themselves
  /// journaled so replay reconstructs them too).
  std::map<std::string, double> declared_fq;
  std::map<std::string, double> declared_fu;

  std::map<std::string, QueryObservation> queries;  // by fingerprint
  std::map<std::string, ViewObservation> views;
  std::map<std::string, RelationObservation> relations;

  /// Serve-latency histogram (bounds serve_latency_bounds(), counts
  /// bounds+1 with the overflow bucket last).
  std::vector<std::uint64_t> latency_counts;
  double latency_ms_sum = 0;
  std::uint64_t latency_count = 0;

  /// Every number this snapshot holds, flattened under "workload/..."
  /// names (fingerprints keyed by fingerprint_id). Two observatories
  /// agree bit-for-bit iff these maps are equal.
  std::map<std::string, double> to_gauges() const;
  Json to_json() const;
};

/// One declared name's observed-vs-declared share.
struct DriftEntry {
  std::string name;
  double declared_share = 0;
  double observed_share = 0;
};

/// Observed workload distribution vs the declared catalog annotations.
/// Distances are total variation (half the L1 distance between the two
/// normalized distributions, observed traffic that matches no declared
/// name counted as an extra bucket with declared share 0): 0 = the
/// observed traffic has exactly the declared shape, 1 = disjoint. Zero
/// traffic observed means zero evidence of drift, reported as 0.
struct DriftReport {
  double fq_distance = 0;
  double fu_distance = 0;
  /// Fraction of serves whose display name matches no declared query.
  double unmatched_serve_share = 0;
  std::vector<DriftEntry> queries;    // declared queries, declared order
  std::vector<DriftEntry> relations;  // declared relations

  Json to_json() const;
};

/// Drift of `stats` against its own declared annotations.
DriftReport compute_drift(const WorkloadStats& stats);

/// Bring a decayed window value forward to the current clock (apply the
/// remaining decay without adding an occurrence) — what reports should
/// display, while to_gauges keeps the raw (value, clock) pair exact.
double windowed_now(double windowed, std::uint64_t windowed_at,
                    std::uint64_t clock, std::size_t window);

class WorkloadObservatory {
 public:
  explicit WorkloadObservatory(std::size_t window = kDefaultObsWindow);

  /// Attach the journal every subsequent event is appended to, and
  /// record a kOpen event carrying the window so a journal replays
  /// self-contained. Call once, before traffic.
  void attach_journal(std::shared_ptr<EventJournal> journal);
  const std::shared_ptr<EventJournal>& journal() const { return journal_; }

  std::size_t window() const { return window_; }

  /// Seed the declared workload the drift report compares against.
  /// Journaled like any other event.
  void declare_query(const std::string& name, double fq);
  void declare_update(const std::string& relation, double fu);

  /// Record one event: assign the next sequence number, fold the event
  /// into the state and append it to the journal, all under one lock (the
  /// total order both sides share). Returns the assigned seq.
  std::uint64_t record(const JournalEvent& event) {
    return record(JournalEvent(event));
  }
  std::uint64_t record(JournalEvent&& event);

  WorkloadStats stats() const;
  DriftReport drift() const { return compute_drift(stats()); }

 private:
  void apply_locked(const JournalEvent& event);

  const std::size_t window_;
  std::shared_ptr<EventJournal> journal_;

  mutable std::mutex mutex_;
  WorkloadStats state_;
  /// The (refusals, refusal_reasons[code]) tallies of every view in the
  /// last fallback's refusal list. A cached template decision hands one
  /// shared list to every serve it answers, so its repeats skip the
  /// per-refusal map lookups. Holding the list keeps it alive, so a list
  /// that shares it holds the same refusals; the pointers are into
  /// state_'s maps, which never erase a node.
  RefusalList tallied_list_;
  std::vector<std::pair<std::uint64_t*, std::uint64_t*>> tallies_;
};

/// Reconstruct an observatory by re-recording `events` in order.
/// `window` 0 takes the first kOpen event's window (kDefaultObsWindow
/// when the journal has none). The result's stats() match the producing
/// observatory's bit-for-bit when the journal is complete.
std::unique_ptr<WorkloadObservatory> replay_journal(
    const std::vector<JournalEvent>& events, std::size_t window = 0);

}  // namespace mvd
