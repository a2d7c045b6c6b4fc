// Executed incremental view maintenance — the refresh discipline the
// paper defers to future work ("we assume re-computing is used whenever
// an update occurs"), made real so the incremental cost model can be
// validated against measured block work.
//
// Given the signed deltas of the base relations changed since the last
// refresh, incremental_refresh() walks the materialized set bottom-up
// (NodeId order is topological) and, per view:
//
//   1. builds the view's refresh plan against the materialized frontier
//      (descendant views in M are scan leaves, exactly as in deploy),
//   2. skips the view when no leaf of that plan has a pending delta,
//   3. otherwise propagates the leaf deltas through the plan
//      (src/exec/delta.hpp) and applies the result to the stored table in
//      place — grouped aggregate views get a grouped +/- apply when their
//      aggregates are self-maintainable — and
//   4. records the view's own delta so ancestor views consume it instead
//      of re-deriving work below the frontier.
//
// Views whose plans the delta algebra cannot cover (interior aggregates,
// theta joins, non-self-maintainable aggregate batches) fall back to
// recomputation; when an ancestor in M needs their delta it is recovered
// by bag-diffing the old and new stored states. Because views refresh in
// ascending id order over an already-updated database, every full-side
// read observes the post-update state consistently, for both the row and
// vectorized engines.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/exec/delta.hpp"
#include "src/mvpp/evaluation.hpp"

namespace mvd {

/// How WarehouseDesigner::refresh maintains stored views.
enum class RefreshMode {
  kRecompute,    // the paper's discipline: re-run every refresh plan
  kIncremental,  // propagate base deltas, apply in place
};

std::string to_string(RefreshMode mode);

/// Which path one view took during a refresh round.
enum class RefreshPath {
  kSkipped,       // no leaf of the refresh plan had a pending delta
  kApplied,       // propagated delta applied row-wise to the stored table
  kGroupApplied,  // grouped +/- delta applied to a stored aggregate view
  kRecomputed,    // fallback: refresh plan re-run, result stored
};

std::string to_string(RefreshPath path);

struct ViewRefresh {
  NodeId id = -1;
  std::string view;
  RefreshPath path = RefreshPath::kSkipped;
  /// Compacted delta rows (inserts + deletes) applied to the stored view;
  /// for kRecomputed, the bag-diff size when an ancestor needed it, else 0.
  double delta_rows = 0;
  /// Stored row count after the refresh.
  double stored_rows = 0;
  /// Block accesses attributed to maintaining this view this round.
  double blocks_read = 0;
};

struct RefreshReport {
  std::vector<ViewRefresh> views;

  std::size_t count(RefreshPath path) const;
  double total_delta_rows() const;
  double total_blocks_read() const;
};

/// Result of a grouped +/- apply: the view's next stored state plus the
/// view's own (compacted) delta for ancestors to consume.
struct GroupApplyResult {
  Table next;
  DeltaTable view_delta;  // over the stored schema, compacted
};

/// Apply `child_delta` (compacted, over the aggregate's input schema) to
/// the stored aggregate view by grouped +/- maintenance. Returns nullopt
/// when this batch is not self-maintainable — AVG without a COUNT and a
/// same-column SUM to recover exact state from, deletes without a COUNT
/// to detect emptied groups, or a delete reaching the stored MIN/MAX of
/// a group it does not drain — in which case the caller recomputes. Throws ExecError when the delta
/// disagrees with the stored view (negative counts, deletes into absent
/// groups).
std::optional<GroupApplyResult> maintain_aggregate_view(
    const AggregateOp& op, const Table& stored, const DeltaTable& child_delta);

/// Incrementally maintain every view of `m` (stored in `db` under its
/// MVPP node name) after the base-table changes described by
/// `base_deltas`. `db` must already hold the post-update base tables —
/// apply_update_batch with a delta_out captures exactly this pair.
/// Work is accumulated into `stats` with the engines' block accounting;
/// per-view row counts land in stats->rows_out and applied delta rows in
/// stats->delta_rows (mirroring deploy, so the exec-rows lint rules keep
/// working). Throws ExecError when a delta deletes rows a stored view
/// does not contain (stale or externally modified warehouse).
///
/// Over a partitioned `db` (DESIGN.md §15) the same walk runs on the
/// whole tables: stored views keep their layout, per-shard stored rows of
/// partitioned views land in stats->per_shard, and each view's delta is
/// charged to the exchange log when it crosses placements (gathered into
/// a view stored once, broadcast into a partitioned one).
RefreshReport incremental_refresh(const MvppGraph& graph,
                                  const MaterializedSet& m, Database& db,
                                  const DeltaSet& base_deltas,
                                  ExecStats* stats = nullptr,
                                  ExecMode mode = default_exec_mode(),
                                  std::size_t threads = default_exec_threads());

}  // namespace mvd
