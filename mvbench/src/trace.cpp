#include "mvbench/src/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "mvbench/src/stats.hpp"

namespace mvbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {
std::atomic<std::uint64_t> g_next_id{0};
std::uint64_t next_id() { return g_next_id.fetch_add(1) + 1; }
}  // namespace

std::uint64_t SpanLog::begin_request() { return next_id(); }

std::uint64_t SpanLog::add(std::string layer, std::uint64_t parent,
                           std::uint64_t request, double start_us,
                           double end_us, SpanKind kind) {
  const std::uint64_t id = next_id();
  spans_.push_back({std::move(layer), id, parent, request, start_us, end_us,
                    kind});
  return id;
}

void SpanLog::count(std::string name, std::uint64_t request, double value) {
  counts_.push_back({std::move(name), request, value});
}

void SpanLog::merge(SpanLog&& other) {
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  counts_.insert(counts_.end(),
                 std::make_move_iterator(other.counts_.begin()),
                 std::make_move_iterator(other.counts_.end()));
  other.spans_.clear();
  other.counts_.clear();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<double> self(spans.size());
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration();
  }
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const std::size_t p = it->second;
    if (s.kind == SpanKind::kSpan) {
      const double lo = std::max(s.start_us, spans[p].start_us);
      const double hi = std::min(s.end_us, spans[p].end_us);
      if (hi > lo) covered[p].emplace_back(lo, hi);
    } else {
      self[p] -= s.duration();
    }
  }
  // Overlapping on-path children (concurrent work) count once.
  for (std::size_t p = 0; p < spans.size(); ++p) {
    auto& iv = covered[p];
    std::sort(iv.begin(), iv.end());
    double end = -1e300;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, end);
      if (hi > from) self[p] -= hi - from;
      end = std::max(end, hi);
    }
  }
  return self;
}

std::map<std::string, LayerStat> layer_stats(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  // layer -> request -> (total, self)
  std::map<std::string, std::map<std::uint64_t, std::pair<double, double>>>
      per_request;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& slot = per_request[spans[i].layer][spans[i].request];
    slot.first += spans[i].duration();
    slot.second += self[i];
  }
  std::map<std::string, LayerStat> out;
  for (const auto& [layer, requests] : per_request) {
    std::vector<double> totals;
    std::vector<double> selfs;
    for (const auto& [request, v] : requests) {
      totals.push_back(v.first);
      selfs.push_back(v.second);
    }
    out[layer] = {requests.size(), median(std::move(totals)),
                  median(std::move(selfs))};
  }
  return out;
}

std::map<std::string, double> count_medians(const std::vector<Count>& counts) {
  std::map<std::string, std::map<std::uint64_t, double>> per_request;
  for (const Count& c : counts) per_request[c.name][c.request] += c.value;
  std::map<std::string, double> out;
  for (const auto& [name, requests] : per_request) {
    std::vector<double> values;
    for (const auto& [request, v] : requests) values.push_back(v);
    out[name] = median(std::move(values));
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "layer,id,parent,request,start_us,end_us,kind\n";
  for (const Span& s : spans) {
    const char* kind = s.kind == SpanKind::kSpan    ? "span"
                       : s.kind == SpanKind::kProbe ? "probe"
                                                    : "reported";
    out << s.layer << ',' << s.id << ',' << s.parent << ',' << s.request
        << ',' << json_number(s.start_us).dump() << ','
        << json_number(s.end_us).dump() << ',' << kind << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace mvbench
