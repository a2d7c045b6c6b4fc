// Sharded execution over a hash-partitioned Database (DESIGN.md §15):
// per-bucket runs plus a deterministic bucket-order merge.
//
// Layout. A partitioned table is one Database entry stored in bucket
// order (src/storage/database.hpp); bucket b is a row range of it, and
// every other table is read whole by every bucket run — the in-process
// analogue of replicating it to every shard. A bucket run is an ordinary
// Executor run whose scan of the partitioned leaf is limited to the
// bucket's rows (RunScope).
//
// Plan classification. A plan may reference at most one partitioned
// relation (along one path — fact self-joins and joins of two
// partitioned relations would need cross-shard repartitioning, which
// this layer deliberately does not implement; such plans throw
// ExecError). Three shapes follow:
//
//   no partitioned leaf      one unscoped run
//   non-aggregate spine      the full plan per bucket, per-bucket results
//                            concatenated in bucket order (gather)
//   aggregate on the spine   the lowest spine aggregate's child per
//                            bucket, each bucket's rows folded into a
//                            partial GroupTable (the row engine's hash
//                            aggregation), partials
//                            merged in bucket order (partial -> final
//                            aggregation), then the plan's remainder —
//                            the ancestors above the aggregate — run with
//                            the merged result standing in for it
//
// Determinism contract. The virtual bucket (64 of them, shard-count
// independent) is the unit of execution and merging, every merge walks
// buckets in ascending order, and morsel parallelism inside each bucket
// run already guarantees thread-count invariance — so sharded results
// are bit-identical at any (shards x threads) configuration. Versus an
// unsharded run the result is the same bag.
//
// Shard routing. A point query whose spine carries an equality conjunct
// `partition_key == literal` in the select chain directly above the
// partitioned leaf executes only the key's owning shard (its whole bucket
// range — routing is at site granularity, matching the §4.1 per-site cost
// model). Skipped shards hold no matching rows, so routed results stay
// bit-identical across shard counts; with more shards each shard owns
// fewer buckets, which is where sharded point-query throughput comes from
// on a single core.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "src/algebra/logical_plan.hpp"
#include "src/exec/executor.hpp"
#include "src/storage/delta_table.hpp"

namespace mvd {

/// How a plan decomposes over a partitioned Database (see file comment).
struct ShardPlanAnalysis {
  /// The partitioned leaf scan, nullptr when the plan reads none.
  const ScanOp* leaf = nullptr;
  /// Number of root->partitioned-scan paths (DAG-aware); >1 is not
  /// executable by this layer.
  std::size_t refs = 0;
  /// Lowest aggregate on the leaf->root spine, nullptr when none.
  const AggregateOp* spine_aggregate = nullptr;
  /// Owning bucket of a `key == literal` routed point query.
  std::optional<std::size_t> route_bucket;
};

ShardPlanAnalysis analyze_shard_plan(const PlanPtr& plan, const Database& db);

/// Copy of `db` laid out over `shards` shards: relations named in
/// `partition_keys` (relation -> hash column) are hash-partitioned — a
/// shuffle of every row — and every other relation is replicated — a
/// broadcast of rows x shards. Both are charged to the copy's exchange
/// log.
Database shard_database(const Database& db, std::size_t shards,
                        const std::map<std::string, std::string>&
                            partition_keys);

/// Apply one base-update round to a partitioned database and charge its
/// exchange: a partitioned table's delta shuffles to its owning buckets
/// (blocks counted per bucket), a replicated table's delta broadcasts to
/// every shard.
void apply_base_deltas(Database& db, const DeltaSet& deltas);

/// Record each shard's stored rows of partitioned entry `name` in
/// stats->per_shard[s].rows_out[name] — the per-shard ledger mvlint's
/// distributed/shard-stats-consistent rule re-adds against the total.
void record_shard_rows(const Database& db, const std::string& name,
                       ExecStats* stats);

/// Executes plans against a partitioned Database through one inner
/// Executor. Its bucket runs scan one columnar form per table (kept by
/// the table, src/storage/table.hpp): the first run to read a column
/// converts it for all. Gathers are charged to the database's exchange
/// log, so concurrent run() calls need distinct databases.
class ShardedExecutor {
 public:
  explicit ShardedExecutor(Database& db, ExecMode mode = default_exec_mode(),
                           std::size_t threads = default_exec_threads());

  /// Execute `plan` to one result. Shards execute in parallel (outer
  /// parallelism over shards; morsel parallelism inside each bucket run
  /// unchanged); merges happen on the calling thread in bucket order.
  /// With `stats`, totals cover every shard plus the merge and remainder
  /// work, `stats->per_shard[s]` holds shard s's own counters, and gather
  /// traffic lands in rows/blocks_exchanged.
  Table run(const PlanPtr& plan, ExecStats* stats = nullptr) const;

 private:
  /// Run `plan` once per bucket of the shards the analysis selects,
  /// calling `take(shard, bucket, result)` on the worker that ran it;
  /// per-shard work lands in `shard_stats`.
  template <typename Take>
  void run_buckets(const PlanPtr& plan, const ShardPlanAnalysis& a,
                   std::vector<ExecStats>& shard_stats, Take&& take) const;
  Table run_spine_aggregate(const PlanPtr& plan, const ShardPlanAnalysis& a,
                            ExecStats* stats) const;

  Database* db_;
  Executor exec_;
  std::size_t threads_;
};

}  // namespace mvd
