// Span tracer — Chrome trace-event output for chrome://tracing and
// Perfetto.
//
// Spans are recorded into per-thread buffers (one relaxed-atomic guard,
// no cross-thread contention on the hot path) against a process-wide
// monotonic clock, so timestamps ascend per thread and RAII scoping
// guarantees strict nesting. to_chrome_json() gathers every thread's
// buffer into one trace-event document ("X" complete events with
// process/thread metadata, "C" counter-track events) that loads directly
// in chrome://tracing or ui.perfetto.dev.
//
// Usage — RAII for scopes, explicit begin/end where scopes don't align:
//
//   void deploy(...) {
//     MVD_TRACE_SPAN("warehouse", "deploy");          // whole function
//     ...
//     TraceSpan span("exec", "scan");                 // args wanted
//     span.arg("rows", rows);
//   }                                                 // ends at scope exit
//
//   Tracer::global().begin("maintenance", view_name);
//   ...
//   Tracer::global().end();
//
//   Tracer::global().counter("exec/vec/morsels", count);  // counter track
//
// Everything is a no-op unless spans_enabled() (MVD_TRACE=spans); the
// RAII constructor costs one relaxed load + branch when off.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/metrics.hpp"

namespace mvd {

/// One recorded event (complete span or counter sample).
struct TraceEvent {
  char phase = 'X';         // 'X' complete span, 'C' counter
  std::string name;
  std::string category;
  double ts_us = 0;         // monotonic, process-start relative
  double dur_us = 0;        // 'X' only
  // Span arguments, kept split by type so no Json is built on record.
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

class Tracer {
 public:
  static Tracer& global();

  /// Microseconds on the process-wide monotonic clock.
  static double now_us();

  /// Open a span on this thread (strictly nested: end() closes the most
  /// recent open one). No-op when spans are off.
  void begin(std::string category, std::string name);
  /// Close the innermost open span, attaching `num_args` to it.
  void end(std::vector<std::pair<std::string, double>> num_args = {},
           std::vector<std::pair<std::string, std::string>> str_args = {});

  /// Record one fully-formed complete event (the RAII span's path).
  void complete(TraceEvent event);

  /// Sample a counter track ("C" event on this thread's lane).
  void counter(std::string name, double value);

  /// Events recorded so far across all threads (cheap; used by the
  /// overhead bench to count instrumentation sites exercised).
  std::size_t event_count() const;

  /// Gather every thread's buffer into one Chrome trace-event document:
  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with process_name /
  /// thread_name metadata. Does not clear.
  Json to_chrome_json() const;

  /// Drop all recorded events (thread registrations persist).
  void clear();

 private:
  struct ThreadBuffer;
  ThreadBuffer& local();

  mutable std::mutex mutex_;  // guards buffers_ registration + gather
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint32_t> next_tid_{0};
};

/// RAII span: records a complete event covering its lifetime when spans
/// are enabled at construction. arg() attaches numbers/strings shown in
/// the trace viewer's detail pane.
class TraceSpan {
 public:
  TraceSpan(std::string category, std::string name)
      : active_(spans_enabled()) {
    if (!active_) return;
    event_.category = std::move(category);
    event_.name = std::move(name);
    event_.ts_us = Tracer::now_us();
  }
  /// Literal overload: no string is built unless spans are on — this is
  /// the form hot paths (and MVD_TRACE_SPAN) should use.
  TraceSpan(const char* category, const char* name)
      : active_(spans_enabled()) {
    if (!active_) return;
    event_.category = category;
    event_.name = name;
    event_.ts_us = Tracer::now_us();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (!active_) return;
    event_.dur_us = Tracer::now_us() - event_.ts_us;
    Tracer::global().complete(std::move(event_));
  }

  bool active() const { return active_; }
  /// Name the span after what the scope turned out to do (a cache miss).
  void rename(const char* name) {
    if (active_) event_.name = name;
  }
  void arg(std::string key, double value) {
    if (active_) event_.num_args.emplace_back(std::move(key), value);
  }
  void arg(std::string key, std::string value) {
    if (active_) event_.str_args.emplace_back(std::move(key), std::move(value));
  }

 private:
  bool active_;
  TraceEvent event_;
};

#define MVD_OBS_CONCAT_INNER(a, b) a##b
#define MVD_OBS_CONCAT(a, b) MVD_OBS_CONCAT_INNER(a, b)

/// Anonymous RAII span covering the rest of the enclosing scope.
#define MVD_TRACE_SPAN(category, name) \
  ::mvd::TraceSpan MVD_OBS_CONCAT(mvd_trace_span_, __COUNTER__)(category, name)

}  // namespace mvd
