// Runs one workload end to end and collects its metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mvbench/src/workload.hpp"
#include "src/common/json.hpp"

namespace mvbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny data and op counts, for the benchmark's own tests.
  bool smoke = false;
  /// Where a traced run writes its spans ("" = keep them in memory only).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Everything else the run knows: configuration, phase sizes, tail
  /// percentiles and sample counts, gate findings. One JSON object.
  mvd::Json report;
};

RunResult run_workload(const Workload& workload, const RunOptions& options);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const RunResult& result);

}  // namespace mvbench
