// Static self-maintainability certification of refresh plans — a mirror
// of the runtime decisions in src/exec/delta.cpp (DeltaPropagator) and
// src/maintenance/refresh.cpp (incremental_refresh /
// maintain_aggregate_view), grounded in the Aziz/Batool self-maintenance
// analysis of PAPERS.md.
//
// An aggregate view's batch-independent facts are computed once, by
// agg_statics(), which the certifier, the path predictor and the runtime
// grouped apply all read; only the batch-dependent checks live at the
// runtime.
//
// Two views of the same question:
//   * certify_refresh_plan(plan) is batch-independent: can this plan ever
//     be maintained incrementally, and under what update classes?
//     (kSelfMaintainable / kInsertOnly / kExtremumHazard /
//     kNotMaintainable — a verdict lattice from strongest to weakest.)
//   * predict_refresh_path(plan, deltas) is batch-aware: given the
//     pending frontier deltas, which RefreshPath will incremental_refresh
//     actually take? Where the runtime decision depends on data the
//     static pass cannot see (does a delete survive the filters? does a
//     non-equi join see two empty deltas?), the prediction is honest
//     about it: kDataDependent, which the differential tests accept as
//     "anything but skipped".
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/storage/database.hpp"
#include "src/storage/delta_table.hpp"

namespace mvd {

/// Batch-independent maintainability class of a refresh plan, strongest
/// first.
enum class MaintVerdict {
  /// Incremental maintenance succeeds for every consistent delta batch.
  kSelfMaintainable,
  /// Insert-only batches maintain incrementally; deletes force recompute
  /// (no COUNT to detect emptied groups).
  kInsertOnly,
  /// Structurally maintainable, but a delete reaching a stored MIN/MAX
  /// extremum forces recompute — data-dependent on the batch.
  kExtremumHazard,
  /// Delta propagation cannot reach the root (interior aggregate,
  /// non-equi join) or the aggregate cannot be reconstructed (AVG without
  /// COUNT + same-column SUM, global MIN/MAX without COUNT).
  kNotMaintainable,
};

std::string to_string(MaintVerdict verdict);

/// The batch-independent half of an aggregate view's self-maintainability.
struct AggStatics {
  std::size_t n_groups = 0;
  std::optional<std::size_t> count_spec;  // first COUNT spec index
  bool has_minmax = false;
  /// Every AVG has a COUNT and a same-column SUM: the stored average is a
  /// rounded quotient, so it is rebuilt from the stored SUM and COUNT.
  bool avg_ok = true;
  /// Per spec, the index of the first same-column SUM behind an AVG
  /// (SIZE_MAX for every other spec and for an AVG without one).
  std::vector<std::size_t> avg_sum;
};

AggStatics agg_statics(const AggregateOp& op);

struct MaintCertificate {
  MaintVerdict verdict = MaintVerdict::kSelfMaintainable;
  std::string reason;  // why the verdict is not kSelfMaintainable
};

/// Certify `plan` as incremental_refresh would drive it: the root is the
/// view operator (grouped +/- application when it is an aggregate,
/// row-wise delta application otherwise), everything below must be
/// covered by the delta-propagation algebra.
MaintCertificate certify_refresh_plan(const PlanPtr& plan);

/// The refresh path incremental_refresh will take for one view.
enum class PredictedPath {
  kSkip,         // == RefreshPath::kSkipped, and conversely
  kIncremental,  // => kApplied or kGroupApplied
  kRecompute,    // => kRecomputed
  kDataDependent,  // => anything but kSkipped
};

std::string to_string(PredictedPath path);

struct RefreshPrediction {
  PredictedPath path = PredictedPath::kDataDependent;
  std::string reason;
};

/// Predict the path for `plan` under the frontier `deltas` (base-relation
/// deltas plus already-refreshed view deltas, exactly what
/// incremental_refresh hands its DeltaPropagator). `db`/`view_name`
/// resolve the stored view for the global-MIN/MAX placeholder check; pass
/// null/empty when unavailable (those cases then answer kDataDependent).
RefreshPrediction predict_refresh_path(const PlanPtr& plan,
                                       const DeltaSet& deltas,
                                       const Database* db = nullptr,
                                       const std::string& view_name = {});

}  // namespace mvd
