// Execution of logical plans against an in-memory Database.
//
// Two engines share one entry point. The row engine materializes each
// operator's result bottom-up as tuple vectors (shared plan fragments are
// computed once per run); the vectorized engine (ExecMode::kVectorized,
// src/exec/vectorized.hpp) runs the same plans over columnar batches with
// selection vectors, typed loops and morsel parallelism. Both split
// equi-join conjuncts into a build/probe hash join and fall back to a
// nested loop otherwise, and both exist to (a) ground-truth the optimizer
// and MVPP rewrites — every rewritten plan must return the same bag of
// tuples as the canonical plan — and (b) measure the real effect of
// materializing the chosen views (bench Ext-D). The row engine is the
// oracle the vectorized engine is differentially tested against.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/storage/database.hpp"

namespace mvd {

/// Work counters accumulated across one run().
struct ExecStats {
  /// Block accesses in the same accounting the cost model uses: scans and
  /// selects charge their input's blocks; a hash join charges both inputs
  /// once; a nested loop charges outer + outer-blocks * inner re-scans
  /// (outer = the smaller input, as in CostModel::join_op_cost).
  double blocks_read = 0;
  /// Tuples inspected by scan/select/join/aggregate operators (inputs,
  /// before filtering).
  double rows_scanned = 0;
  /// Row batches processed: one per operator input in the row engine, one
  /// per morsel in the vectorized engine.
  double batches = 0;
  /// Tuples that flowed out of each operator, keyed by the node's label
  /// (used to validate cardinality estimates).
  std::map<std::string, double> rows_out;
  /// Incremental maintenance only: compacted delta rows (inserts + deletes)
  /// applied to each refreshed view, keyed by the view's MVPP node name.
  std::map<std::string, double> delta_rows;
  /// Partitioned databases only: rows/blocks moved by exchange operators
  /// (shuffle + broadcast + gather) during this run or refresh round.
  double rows_exchanged = 0;
  double blocks_exchanged = 0;
  /// Partitioned databases only: one entry per shard with that shard's
  /// own counters (blocks read, rows out per node, stored rows of each
  /// partitioned view after deploy/refresh, ...). Empty otherwise. Totals
  /// above include every shard plus coordinator work (final merges,
  /// remainder plans).
  std::vector<ExecStats> per_shard;
};

/// Which engine Executor::run uses.
enum class ExecMode { kRow, kVectorized };

/// Engine selected by the MVD_EXEC_MODE environment variable ("row" or
/// "vectorized"/"vec"); kRow when unset or unrecognized.
ExecMode default_exec_mode();

/// Short engine label for metrics and journal events: "row" or "vec".
const char* exec_mode_name(ExecMode mode);

/// Vectorized-engine worker count from MVD_EXEC_THREADS (0 = hardware
/// auto); 1 (serial) when unset or unparsable.
std::size_t default_exec_threads();

/// Narrows one Executor::run — how the sharded executor runs a plan over
/// one bucket and finishes a merged aggregate (src/exec/sharded.hpp).
struct RunScope {
  /// When non-empty, scans of this relation read only its rows
  /// [begin, end) — one bucket of a partitioned table.
  std::string relation;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// When set, plan node `given_node` evaluates to `*given` instead of
  /// being computed (the node's subtree is not run).
  const LogicalOp* given_node = nullptr;
  const Table* given = nullptr;
};

class Executor {
 public:
  explicit Executor(const Database& db, ExecMode mode = default_exec_mode(),
                    std::size_t threads = default_exec_threads());

  /// Snapshot-pinning overload: the executor co-owns `db`, so a serving
  /// layer can atomically swap in a newer snapshot while in-flight
  /// queries finish against the one they started on (mvserve's reader
  /// protocol). The pinned database must not be mutated while pinned.
  explicit Executor(std::shared_ptr<const Database> db,
                    ExecMode mode = default_exec_mode(),
                    std::size_t threads = default_exec_threads());

  ExecMode mode() const { return mode_; }
  const Database& database() const { return *db_; }

  /// Execute `plan`. Scan nodes resolve by relation name in the database
  /// (base tables and stored views alike). Throws ExecError for unknown
  /// relations, BindError for predicate binding failures. Concurrent
  /// calls on one executor, or on executors sharing tables, are safe.
  Table run(const PlanPtr& plan, ExecStats* stats = nullptr,
            const RunScope* scope = nullptr) const;

 private:
  using TableRef = std::shared_ptr<const Table>;

  /// A row-engine intermediate: rows [begin, end) of a shared table —
  /// the whole table except below a bucket-scoped scan.
  struct Rows {
    TableRef table;
    std::size_t begin = 0;
    std::size_t end = 0;

    static Rows all(TableRef t) {
      const std::size_t n = t->row_count();
      return {std::move(t), 0, n};
    }
    RowRange rows() const { return table->rows(begin, end); }
    std::size_t size() const { return end - begin; }
    double blocks() const {
      return Table::blocks_of(size(), table->blocking_factor());
    }
    const Schema& schema() const { return table->schema(); }
  };

  /// Per-run row-engine state: the shared-fragment memo plus per-operator
  /// work tallies flushed to the MetricsRegistry at the end of run().
  struct RunContext;

  Rows run_node(const PlanPtr& plan, ExecStats* stats, RunContext& ctx) const;

  Rows exec_scan(const ScanOp& op, ExecStats* stats,
                 const RunScope* scope) const;
  Rows exec_select(const SelectOp& op, const Rows& in, ExecStats* stats) const;
  Rows exec_project(const ProjectOp& op, const Rows& in) const;
  Rows exec_join(const JoinOp& op, const Rows& left, const Rows& right,
                 ExecStats* stats) const;
  Rows exec_aggregate(const AggregateOp& op, const Rows& in,
                      ExecStats* stats) const;

  const Database* db_;
  /// Set by the pinning constructor; keeps the snapshot alive for the
  /// executor's lifetime (db_ points into it).
  std::shared_ptr<const Database> pinned_;
  ExecMode mode_;
  std::size_t threads_;
};

/// Convenience: bag-equality of two tables (same schema arity, same
/// multiset of tuples, order-insensitive; doubles equal at 6 significant
/// digits). Used by plan-equivalence tests.
bool same_bag(const Table& a, const Table& b);

}  // namespace mvd
