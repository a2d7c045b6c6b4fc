// Summary statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/json.hpp"

namespace mvbench {

/// Median (the mean of the two middle values for an even count); 0 when
/// empty.
double median(std::vector<double> samples);

/// The tail of a latency sample: the highest order statistic that still
/// has at least ten samples above it, capped at the nearest-rank p99 and
/// never below the median (so samples of 20 or fewer report the median).
struct Tail {
  double value = 0;
  /// 100 * rank / n of the reported order statistic.
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> samples);

/// `v` as a JSON number, or null when it is NaN or infinite (JSON has no
/// text for those).
mvd::Json json_number(double v);

}  // namespace mvbench
