// MetricsRegistry — named counters, gauges and fixed-bucket histograms
// shared by every layer (naming scheme "layer/subsystem/metric", e.g.
// "exec/row/blocks_read", "selection/fast_eval/probes").
//
// Activation is process-wide and three-valued:
//
//   MVD_TRACE=off        nothing is recorded (the default)
//   MVD_TRACE=counters   registry counters/gauges/histograms record
//   MVD_TRACE=spans      counters plus the span tracer (src/obs/trace.hpp)
//
// plus set_trace_level() as the programmatic override (tests, mvprof).
// The level is resolved once from the environment and cached in an
// atomic, so the hot-path guards counters_enabled()/spans_enabled() cost
// one relaxed load and a compare — instrumented code left in release
// builds is effectively free when tracing is off (bench Ext-K pins the
// overhead under 1%).
//
// Metric handles returned by counter()/gauge()/histogram() are stable for
// the registry's lifetime and individually thread-safe (atomics), so hot
// loops should look a handle up once and hammer it, or tally locally and
// add() once at the end — the lookup itself takes the registry mutex.
//
// A MetricsSnapshot is an immutable copy of every metric. Snapshots form
// a diff algebra: diff(earlier) subtracts counters and histogram buckets
// (what happened *between* the two snapshots) while gauges keep the later
// value (their latest-wins semantics). Snapshots render as a text table
// or as JSON (src/common/json, stable key order for diffing runs).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/json.hpp"

namespace mvd {

enum class TraceLevel { kOff, kCounters, kSpans };

/// Effective level: programmatic override, else MVD_TRACE, else off.
/// Resolved once and cached; unknown env text means off.
TraceLevel trace_level();

/// Override the level for this process; nullopt restores env resolution.
void set_trace_level(std::optional<TraceLevel> level);

namespace obs_internal {
// -1 = unresolved; otherwise static_cast<int>(TraceLevel).
extern std::atomic<int> g_trace_level;
int resolve_trace_level();
inline int trace_level_int() {
  int level = g_trace_level.load(std::memory_order_relaxed);
  if (level < 0) level = resolve_trace_level();
  return level;
}
}  // namespace obs_internal

/// True at MVD_TRACE=counters or spans: registry publishing is on.
inline bool counters_enabled() {
  return obs_internal::trace_level_int() >=
         static_cast<int>(TraceLevel::kCounters);
}

/// True at MVD_TRACE=spans: the span tracer records too.
inline bool spans_enabled() {
  return obs_internal::trace_level_int() ==
         static_cast<int>(TraceLevel::kSpans);
}

enum class MetricKind { kCounter, kGauge, kHistogram };

std::string to_string(MetricKind kind);

/// Monotonically increasing sum. add() is lock-free and thread-safe.
class Counter {
 public:
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void increment() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latest-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges;
/// an implicit overflow bucket catches everything above the last bound.
/// observe(v) lands in the first bucket with v <= bound. Thread-safe.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  /// Bulk merge of pre-tallied bucket counts (same length as
  /// bucket_count()) — the local-tally-then-flush pattern for hot loops.
  void observe_bucketed(const std::vector<std::uint64_t>& counts, double sum);

  const std::vector<double>& bounds() const { return bounds_; }
  std::size_t bucket_count() const { return counts_.size(); }  // bounds+1
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Bucket index for one value (shared with local tallies).
  std::size_t bucket_index(double value) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Percentile estimate from fixed-bucket tallies: find the bucket holding
/// the q-th observation (q in [0,1]) and interpolate linearly inside it
/// (bucket i spans (bounds[i-1], bounds[i]], the first starts at 0, the
/// overflow bucket reports the last bound — the estimate saturates
/// there). 0 when no observations.
double histogram_percentile(const std::vector<double>& bounds,
                            const std::vector<std::uint64_t>& counts,
                            std::uint64_t count, double q);

/// One metric's frozen state inside a snapshot.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter sum or gauge value; histogram: sum
  // Histogram only:
  std::vector<double> bucket_bounds;
  std::vector<std::uint64_t> bucket_counts;  // bounds + overflow
  std::uint64_t count = 0;

  /// Histogram percentile estimate (see histogram_percentile); 0 for
  /// counters and gauges.
  double percentile(double q) const;
};

struct MetricsSnapshot {
  /// Name -> value, ordered (stable rendering and diffing).
  std::map<std::string, MetricValue> metrics;

  bool contains(const std::string& name) const {
    return metrics.count(name) != 0;
  }
  /// Counter/gauge value (histogram: sum); nullopt when absent.
  std::optional<double> value_of(const std::string& name) const;

  /// What happened between `earlier` and *this: counters and histogram
  /// buckets subtract, gauges keep this snapshot's value. Metrics absent
  /// from `earlier` pass through unchanged.
  MetricsSnapshot diff(const MetricsSnapshot& earlier) const;

  /// Aligned text table (name, kind, value, count for histograms).
  std::string render_text() const;
  /// {"metrics": {name: {kind, value, ...}}} with stable key order.
  Json to_json() const;
};

/// Thread-safe registry of named metrics. Metrics are created on first
/// use and never removed; handles stay valid for the registry's
/// lifetime. Re-requesting a name returns the same handle (a histogram
/// re-request ignores the new bounds). Requesting an existing name as a
/// different kind throws PlanError — names are global, collisions are
/// bugs.
class MetricsRegistry {
 public:
  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  /// Drop every registered metric (tests and tool runs that want a clean
  /// slate). Outstanding handles become dangling — only call between
  /// measurement runs, never concurrently with recording.
  void reset();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(const std::string& name, MetricKind kind,
               std::vector<double> bounds = {});

  mutable std::mutex mutex_;
  std::map<std::string, Entry> metrics_;
};

}  // namespace mvd
