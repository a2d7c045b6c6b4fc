#include "mvbench/src/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mvbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Tail tail(std::vector<double> samples) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  const std::size_t median_rank = n / 2 + 1;  // 1-based, upper median
  const std::size_t p99_rank =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  std::size_t rank = n > 10 ? n - 10 : 0;  // ten samples strictly above
  rank = std::min(rank, p99_rank);
  rank = std::max(rank, median_rank);
  out.value = samples[rank - 1];
  out.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

mvd::Json json_number(double v) {
  return std::isfinite(v) ? mvd::Json::number(v) : mvd::Json::null();
}

}  // namespace mvbench
