// Delta-propagation operators: executing the incremental maintenance
// algebra that src/maintenance/incremental.hpp only estimates.
//
// Given the signed deltas of named leaves (base relations and stored
// views), a DeltaPropagator computes the signed delta of a plan's result:
//
//   Δ(σ_p R)   = σ_p(ΔR)                       — filter both bags
//   Δ(π_c R)   = π_c(ΔR)                       — bag projection
//   Δ(R ⋈ S)  = ΔR ⋈ S' + R' ⋈ ΔS − ΔR ⋈ ΔS  — primed sides are the
//               post-update states
//
// Join terms run the row engine's hash join (exec_internal.hpp), always
// building on the (small) delta side and probing with the full side. A
// full side that is a bare scan of a stored table (a base relation or a
// frontier view) is probed in place, charged exactly as the configured
// engine's scan would charge it; any other full side is produced by
// Executor::run under the configured ExecMode, exactly as a recompute
// refresh would produce it.
// Aggregates are not propagated here — the maintenance driver applies
// grouped deltas to stored aggregate views directly (self-maintainable
// aggregates) or falls back to recompute; propagate() reports them as
// non-propagatable via std::nullopt.
#pragma once

#include <map>
#include <optional>

#include "src/exec/executor.hpp"
#include "src/storage/delta_table.hpp"

namespace mvd {

class DeltaPropagator {
 public:
  /// `deltas` holds one entry per changed leaf, already compacted
  /// (incremental_refresh compacts a delta once, as it enters its
  /// frontier); an entry whose rows all cancelled still marks its leaf
  /// changed, and a leaf without an entry is unchanged. Both referees
  /// must outlive the propagator. Construct a fresh propagator after
  /// mutating `db` — full sides are memoized per plan node, stored ones
  /// by reference (and per stored table in vectorized mode).
  DeltaPropagator(const Database& db, const DeltaSet& deltas,
                  ExecMode mode = default_exec_mode(),
                  std::size_t threads = default_exec_threads());

  /// Signed delta of `plan`'s result, or std::nullopt when the plan
  /// contains an operator the delta algebra does not cover (aggregation).
  /// Charges blocks_read/rows_scanned in the engines' accounting: delta
  /// scans and filters charge delta blocks, each join term charges the
  /// delta build plus the full probe side, full-side production is
  /// charged by the inner Executor run.
  std::optional<DeltaTable> propagate(const PlanPtr& plan,
                                      ExecStats* stats = nullptr);

  /// True when some scan leaf of `plan` has a delta entry — the cheap
  /// "is this view affected at all" test the driver uses to skip
  /// untouched views without executing anything.
  bool touches(const PlanPtr& plan) const;

  /// The post-update state of `plan`'s result (memoized per plan node;
  /// used by the driver's recompute fallback so the work is not redone).
  /// A bare scan of a stored table returns the stored table itself, whose
  /// schema need only be compatible with the scan's (Table::check_rebind);
  /// it stays valid until `db` writes that entry.
  const Table& full(const PlanPtr& plan, ExecStats* stats = nullptr);

 private:
  std::optional<DeltaTable> run(const PlanPtr& plan, ExecStats* stats);

  DeltaTable delta_scan(const ScanOp& op, ExecStats* stats) const;
  DeltaTable delta_select(const SelectOp& op, const DeltaTable& in,
                          ExecStats* stats) const;
  DeltaTable delta_project(const ProjectOp& op, const DeltaTable& in) const;
  /// nullopt for joins without an equi conjunct (theta/cross) — the hash
  /// delta algebra does not cover them, so callers fall back to recompute.
  std::optional<DeltaTable> delta_join(const JoinOp& op,
                                       const std::optional<DeltaTable>& l,
                                       const std::optional<DeltaTable>& r,
                                       ExecStats* stats);

  const Database* db_;
  const DeltaSet* deltas_;
  Executor exec_;
  std::map<const LogicalOp*, DeltaTable> delta_memo_;
  /// Full sides: stored tables aliased, computed ones owned.
  std::map<const LogicalOp*, std::shared_ptr<const Table>> full_memo_;
};

}  // namespace mvd
