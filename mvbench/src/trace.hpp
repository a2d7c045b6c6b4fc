// The benchmark's own tracer. In a traced run every call the benchmark
// makes into a layer's public function is wrapped in a span, and probes
// re-run (off the measured path, after the op's span closes) the layers
// that MvServer::serve and WarehouseDesigner::design hide inside one call.
// Spans stay in per-thread logs in memory and are written out at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mvbench {

/// Microseconds on the steady clock since the first call in the process.
double now_us();

enum class SpanKind {
  kSpan,      // measured around the call, on the request's path
  kProbe,     // re-run after the op to attribute time to a hidden layer
  kReported,  // a duration the library reports (ServeResult::latency_ms)
};

struct Span {
  std::string layer;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint64_t request = 0;
  double start_us = 0;
  double end_us = 0;
  SpanKind kind = SpanKind::kSpan;

  double duration() const { return end_us - start_us; }
};

/// A per-op count recorded at a layer boundary (rows scanned, views
/// tried, ...).
struct Count {
  std::string name;
  std::uint64_t request = 0;
  double value = 0;
};

/// One thread's spans and counts. Not thread-safe: each client thread owns
/// one, and the logs are merged after the threads join. Span and request
/// ids come from one process-wide counter, so they stay unique after
/// merging.
class SpanLog {
 public:
  std::uint64_t begin_request();
  std::uint64_t add(std::string layer, std::uint64_t parent,
                    std::uint64_t request, double start_us, double end_us,
                    SpanKind kind = SpanKind::kSpan);
  void count(std::string name, std::uint64_t request, double value);
  void merge(SpanLog&& other);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

 private:
  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

/// Self time of each span (same order as `spans`): its duration minus the
/// part of its interval covered by its on-path child spans, minus the
/// durations of its probe and reported children (those are measured
/// outside, or only as a length inside, the parent's interval).
std::vector<double> self_times(const std::vector<Span>& spans);

struct LayerStat {
  std::size_t ops = 0;  // requests that entered the layer
  double p50_us = 0;    // median over those requests of the layer's total
  double self_p50_us = 0;
};

/// Per layer: each request's summed span time and self time, then the
/// median over the requests that entered the layer.
std::map<std::string, LayerStat> layer_stats(const std::vector<Span>& spans);

/// Per count name: the median over the requests that recorded it.
std::map<std::string, double> count_medians(const std::vector<Count>& counts);

/// Write the spans as CSV (layer,id,parent,request,start_us,end_us,kind).
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace mvbench
