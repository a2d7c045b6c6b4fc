// The serve/refresh event journal — durable, replayable workload
// evidence.
//
// Every observable action of the serving warehouse (a served query, an
// ingested update batch, a refresh round, plus the declared-workload
// annotations seeded at startup) is one JournalEvent. Events are plain
// data: they serialize to one JSON line each (JSONL) and parse back
// exactly — numbers round-trip through src/common/json's shortest-form
// formatting, so a journal written to disk reproduces the in-memory
// events bit-for-bit.
//
// EventJournal keeps the most recent `capacity` events in a bounded ring
// (old events are dropped, not reallocated into unbounded memory) and,
// when MVD_JOURNAL=<path> is set (or a sink path is passed explicitly),
// appends every event to that file as it happens — line-buffered JSONL a
// tail -f or an offline mvstat --journal run can consume.
//
// The replay contract: feeding a complete journal back through
// WorkloadObservatory (src/obs/workload.hpp, replay_journal) reconstructs
// the exact live observatory state — every gauge bit-for-bit — because
// recording serializes events into a total order and replay applies the
// same order through the same code path. mvlint rule
// obs/journal-consistent certifies exactly this. The ring is a bounded
// tail: the certificate needs the file sink (complete history) or a run
// short enough that nothing was dropped.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/json.hpp"

namespace mvd {

/// One VALID view's reason for refusing to answer a served query (the
/// matcher's short explanation; view_rewrite's refusal_code() buckets the
/// free text into stable categories for tallying).
struct ServeRefusal {
  std::string view;
  std::string reason;

  friend bool operator==(const ServeRefusal&, const ServeRefusal&) = default;
};

enum class EventKind {
  kOpen,          // journal/observatory opened; carries the decay window
  kDeclareQuery,  // catalog annotation: declared fq(q) for one query
  kDeclareUpdate, // catalog annotation: declared fu(r) for one relation
  kServe,         // one answered query (hit or fallback)
  kIngest,        // one applied update batch
  kRefresh,       // one refresh round publishing views VALID
};

std::string to_string(EventKind kind);

/// One observed action. A flat struct: each kind uses its own subset of
/// the fields (the rest stay defaulted and are omitted from the JSON).
struct JournalEvent {
  /// Position in the observatory's total event order (assigned by
  /// WorkloadObservatory::record, 1-based). Replay reassigns it, which is
  /// how a deleted or reordered line is caught by the bit-for-bit check.
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kServe;
  /// ServeSnapshot epoch the action observed/produced (0 outside a
  /// server, e.g. the designer's refresh path).
  std::uint64_t epoch = 0;

  // kOpen
  std::uint64_t window = 0;

  // kDeclareQuery / kDeclareUpdate
  double frequency = 0;

  // kServe
  std::string query;        // display name (QuerySpec name)
  std::string fingerprint;  // canonical identity (query_fingerprint)
  bool rewritten = false;
  std::string view;    // the hit view when rewritten
  std::string engine;  // "row" | "vec"
  double latency_ms = 0;
  std::vector<ServeRefusal> refusals;  // per-VALID-view reasons on a miss
  /// Deployed-but-unavailable coverage on a fallback: non-VALID
  /// matchable views over exactly the query's relation set (the matcher
  /// would at least have consulted them had they been fresh) — the
  /// "serve while stale" evidence.
  std::vector<std::string> stale_views;

  // kIngest (also kDeclareUpdate's subject)
  std::string relation;
  double delta_rows = 0;
  std::vector<std::string> marked_stale;

  // kRefresh
  std::vector<std::string> refreshed;
  std::string mode;  // to_string(RefreshMode)

  Json to_json() const;
  /// Throws ParseError on a structurally wrong document (unknown kind,
  /// missing subject fields).
  static JournalEvent from_json(const Json& doc);

  friend bool operator==(const JournalEvent&, const JournalEvent&) = default;
};

/// MVD_JOURNAL resolution: the file-sink path, empty when unset.
std::string default_journal_path();

/// Thread-safe bounded event ring with an optional JSONL file sink.
class EventJournal {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// `sink_path` empty means ring-only. Opens the sink for appending and
  /// throws Error when the path cannot be opened.
  explicit EventJournal(std::size_t capacity = kDefaultCapacity,
                        std::string sink_path = default_journal_path());

  /// Append one event (ring + sink, one flushed JSONL line).
  void append(JournalEvent event);

  /// Ring contents, oldest first (the most recent `capacity` appends).
  std::vector<JournalEvent> events() const;

  std::size_t capacity() const { return capacity_; }
  /// Total events ever appended; `appended() - events().size()` were
  /// dropped from the ring (the sink, when configured, kept them).
  std::uint64_t appended() const;
  const std::string& sink_path() const { return sink_path_; }

  // ---- JSONL (de)serialization, shared by the sink and offline tools --

  static std::string to_jsonl(const std::vector<JournalEvent>& events);

  /// Parse JSONL text. Malformed lines — torn writes, truncation mid-
  /// line, hand edits — are skipped and counted into `*corrupt_lines`
  /// (when given) instead of aborting the load: a damaged journal yields
  /// every intact event.
  static std::vector<JournalEvent> parse_jsonl(
      const std::string& text, std::size_t* corrupt_lines = nullptr);

  /// Load a journal file. Throws Error when unreadable; corrupt lines
  /// recover as in parse_jsonl.
  static std::vector<JournalEvent> load(const std::string& path,
                                        std::size_t* corrupt_lines = nullptr);

 private:
  std::size_t capacity_;
  std::string sink_path_;

  mutable std::mutex mutex_;
  std::deque<JournalEvent> ring_;
  std::uint64_t appended_ = 0;
  std::ofstream sink_;
};

}  // namespace mvd
