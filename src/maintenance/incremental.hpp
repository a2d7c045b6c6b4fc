// Incremental (delta-propagation) maintenance cost model — an extension
// the paper lists as future work ("we assume re-computing is used whenever
// an update occurs"; see also Gupta & Mumick's survey cited there).
//
// Model: an update batch changes `update_fraction` of a base relation's
// blocks. The delta flows up the view's subtree: selections/projections
// scan only the delta; a join probes the delta against the full other
// side; an aggregate applies its grouped delta (read the child delta and
// the stored groups). The per-view cost is the sum over affected operators plus the
// write of the view's own delta. Comparing this against recompute
// maintenance is the Ext-C ablation bench.
#pragma once

#include <map>

#include "src/mvpp/evaluation.hpp"

namespace mvd {

struct IncrementalOptions {
  /// Fraction of a base relation touched by one update batch.
  double update_fraction = 0.01;
};

/// Cost (block accesses) of incrementally maintaining view `v` for one
/// update batch of base relation `base` (a kBase node id under v).
/// Returns 0 when `base` is not beneath `v`.
double incremental_delta_cost(const MvppGraph& graph, NodeId v, NodeId base,
                              const IncrementalOptions& options);

/// Per-period maintenance cost of view `v`: Σ over base relations b under
/// v of fu(b) · incremental_delta_cost(v, b).
double incremental_maintenance_cost(const MvppGraph& graph, NodeId v,
                                    const IncrementalOptions& options);

/// Σ over views in `m`.
double total_incremental_maintenance(const MvppGraph& graph,
                                     const MaterializedSet& m,
                                     const IncrementalOptions& options);

/// Estimated block work of one executed incremental_refresh round
/// (src/maintenance/refresh.hpp) over every view of `m`, for an update
/// batch changing `base_fractions[b]` of each base relation b's blocks
/// (absent bases are unchanged). Unlike incremental_delta_cost — which
/// keeps the paper-era block-nested-loop probe (delta.blocks ×
/// other.blocks) — this mirrors the executed driver: hash probes charge
/// the delta build plus the full side once, full sides are produced from
/// the materialized frontier (descendant views in `m` contribute their
/// own deltas instead of base-derived ones), and applying a delta charges
/// the delta plus a rewrite of the stored view. Aggregate views are
/// costed as a grouped apply (delta + stored groups). The estimate's
/// known biases: it assumes every view takes a delta path (no recompute
/// fallbacks) and that batches contain deletes (stored rewrite charged).
double executed_refresh_estimate(const MvppGraph& graph,
                                 const MaterializedSet& m,
                                 const std::map<NodeId, double>& base_fractions);

}  // namespace mvd
