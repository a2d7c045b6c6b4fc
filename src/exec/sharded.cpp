#include "src/exec/sharded.hpp"

#include <string>
#include <tuple>
#include <utility>

#include "src/algebra/expr.hpp"
#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

namespace {

// Path count (not node count): a DAG node shared under two parents is
// reached twice, which is exactly what matters — each reference would
// need its own exchange.
std::size_t count_partitioned_paths(const PlanPtr& node, const Database& db,
                                    const ScanOp** leaf) {
  if (node->kind() == OpKind::kScan) {
    const auto& scan = static_cast<const ScanOp&>(*node);
    if (db.is_partitioned(scan.relation())) {
      *leaf = &scan;
      return 1;
    }
    return 0;
  }
  std::size_t refs = 0;
  for (const PlanPtr& c : node->children()) {
    refs += count_partitioned_paths(c, db, leaf);
  }
  return refs;
}

// Root-to-leaf path; unique when the leaf has exactly one reference.
bool find_spine(const PlanPtr& node, const LogicalOp* leaf,
                std::vector<const LogicalOp*>& path) {
  path.push_back(node.get());
  if (node.get() == leaf) return true;
  for (const PlanPtr& c : node->children()) {
    if (find_spine(c, leaf, path)) return true;
  }
  path.pop_back();
  return false;
}

std::optional<std::size_t> try_find(const Schema& schema,
                                    const std::string& name) {
  try {
    return schema.find(name);
  } catch (const BindError&) {
    return std::nullopt;  // ambiguous bare name: not the key
  }
}

// `partition_key == literal` in the select chain directly above the leaf
// routes the query to the key's owning bucket (hence shard). Conservative:
// equality conjuncts higher up the spine are not inspected.
std::optional<std::size_t> find_route(
    const std::vector<const LogicalOp*>& spine, const Database& db,
    const ScanOp& leaf) {
  const std::string* key = db.partition_key(leaf.relation());
  if (key == nullptr) return std::nullopt;
  auto key_idx = try_find(leaf.output_schema(), *key);
  if (!key_idx.has_value()) return std::nullopt;
  for (std::size_t i = spine.size() - 1; i-- > 0;) {
    if (spine[i]->kind() != OpKind::kSelect) break;
    const auto& sel = static_cast<const SelectOp&>(*spine[i]);
    for (const ExprPtr& c : conjuncts_of(sel.predicate())) {
      if (c->kind() != ExprKind::kComparison) continue;
      const auto& cmp = static_cast<const ComparisonExpr&>(*c);
      if (cmp.op() != CompareOp::kEq) continue;
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      if (cmp.lhs()->kind() == ExprKind::kColumn &&
          cmp.rhs()->kind() == ExprKind::kLiteral) {
        col = cmp.lhs().get();
        lit = cmp.rhs().get();
      } else if (cmp.lhs()->kind() == ExprKind::kLiteral &&
                 cmp.rhs()->kind() == ExprKind::kColumn) {
        col = cmp.rhs().get();
        lit = cmp.lhs().get();
      } else {
        continue;
      }
      auto idx = try_find(leaf.output_schema(),
                          static_cast<const ColumnExpr&>(*col).name());
      if (idx.has_value() && *idx == *key_idx) {
        return Database::bucket_of(
            static_cast<const LiteralExpr&>(*lit).value());
      }
    }
  }
  return std::nullopt;
}

// Everything except per_shard (the caller owns that layout).
void add_stats(ExecStats& into, const ExecStats& from) {
  into.blocks_read += from.blocks_read;
  into.rows_scanned += from.rows_scanned;
  into.batches += from.batches;
  for (const auto& [k, v] : from.rows_out) into.rows_out[k] += v;
  for (const auto& [k, v] : from.delta_rows) into.delta_rows[k] += v;
  into.rows_exchanged += from.rows_exchanged;
  into.blocks_exchanged += from.blocks_exchanged;
}

void merge_shard_stats(ExecStats* stats, std::vector<ExecStats> shard_stats) {
  if (stats == nullptr) return;
  for (const ExecStats& s : shard_stats) add_stats(*stats, s);
  if (stats->per_shard.size() != shard_stats.size()) {
    stats->per_shard = std::move(shard_stats);
  } else {
    for (std::size_t s = 0; s < shard_stats.size(); ++s) {
      add_stats(stats->per_shard[s], shard_stats[s]);
    }
  }
}

}  // namespace

ShardPlanAnalysis analyze_shard_plan(const PlanPtr& plan, const Database& db) {
  ShardPlanAnalysis a;
  const ScanOp* leaf = nullptr;
  a.refs = count_partitioned_paths(plan, db, &leaf);
  a.leaf = leaf;
  if (a.refs != 1) return a;
  std::vector<const LogicalOp*> spine;
  find_spine(plan, leaf, spine);
  for (std::size_t i = spine.size(); i-- > 0;) {
    if (spine[i]->kind() == OpKind::kAggregate) {
      a.spine_aggregate = static_cast<const AggregateOp*>(spine[i]);
      break;
    }
  }
  a.route_bucket = find_route(spine, db, *leaf);
  return a;
}

Database shard_database(
    const Database& db, std::size_t shards,
    const std::map<std::string, std::string>& partition_keys) {
  Database out = db;
  out.set_shards(shards);
  for (const std::string& name : out.table_names()) {
    const Table& t = out.table(name);
    const auto rows = static_cast<double>(t.row_count());
    const auto it = partition_keys.find(name);
    if (it != partition_keys.end()) {
      MVD_TRACE_SPAN("exec.exchange", "shuffle");
      out.partition(name, it->second);
      record_shuffle(out.exchange_log(), rows, t.blocks());
    } else {
      MVD_TRACE_SPAN("exec.exchange", "broadcast");
      record_broadcast(out.exchange_log(), rows, t.blocks(),
                       approx_table_bytes(t), shards);
    }
  }
  return out;
}

void apply_base_deltas(Database& db, const DeltaSet& deltas) {
  for (const auto& [name, delta] : deltas) {
    if (delta.empty()) continue;
    db.apply_delta(name, delta);
    const auto rows = static_cast<double>(delta.row_count());
    if (const std::string* key = db.partition_key(name)) {
      MVD_TRACE_SPAN("exec.exchange", "shuffle");
      // Each bucket's share of the delta ships as its own blocks.
      const std::size_t k = delta.schema().index_of(*key);
      std::vector<std::size_t> inserts(Database::kBuckets);
      std::vector<std::size_t> deletes(Database::kBuckets);
      for (const Tuple& t : delta.inserts().rows()) {
        ++inserts[Database::bucket_of(t[k])];
      }
      for (const Tuple& t : delta.deletes().rows()) {
        ++deletes[Database::bucket_of(t[k])];
      }
      double blocks = 0;
      for (std::size_t b = 0; b < Database::kBuckets; ++b) {
        blocks += Table::blocks_of(inserts[b], delta.blocking_factor()) +
                  Table::blocks_of(deletes[b], delta.blocking_factor());
      }
      record_shuffle(db.exchange_log(), rows, blocks);
    } else {
      MVD_TRACE_SPAN("exec.exchange", "broadcast");
      record_broadcast(db.exchange_log(), rows, delta.blocks(),
                       approx_delta_bytes(delta), db.shards());
    }
  }
}

void record_shard_rows(const Database& db, const std::string& name,
                       ExecStats* stats) {
  if (stats == nullptr || !db.is_partitioned(name)) return;
  if (stats->per_shard.size() != db.shards()) {
    stats->per_shard.assign(db.shards(), ExecStats{});
  }
  for (std::size_t s = 0; s < db.shards(); ++s) {
    const auto [b0, b1] = db.bucket_range(s);
    const std::size_t rows =
        db.bucket_rows(name, b1 - 1).second - db.bucket_rows(name, b0).first;
    stats->per_shard[s].rows_out[name] = static_cast<double>(rows);
  }
}

ShardedExecutor::ShardedExecutor(Database& db, ExecMode mode,
                                 std::size_t threads)
    : db_(&db), exec_(db, mode, threads), threads_(threads) {}

template <typename Take>
void ShardedExecutor::run_buckets(const PlanPtr& plan,
                                  const ShardPlanAnalysis& a,
                                  std::vector<ExecStats>& shard_stats,
                                  Take&& take) const {
  std::size_t s_begin = 0;
  std::size_t s_end = db_->shards();
  if (a.route_bucket.has_value()) {
    s_begin = db_->shard_of_bucket(*a.route_bucket);
    s_end = s_begin + 1;
  }
  const std::string& relation = a.leaf->relation();
  parallel_shards(
      s_end - s_begin, threads_,
      [&](std::size_t, std::size_t wb, std::size_t we) {
        for (std::size_t s = s_begin + wb; s < s_begin + we; ++s) {
          const auto [b0, b1] = db_->bucket_range(s);
          for (std::size_t b = b0; b < b1; ++b) {
            RunScope scope;
            scope.relation = relation;
            std::tie(scope.begin, scope.end) = db_->bucket_rows(relation, b);
            // Fresh stats per bucket run: Executor::run assigns rows_out
            // by label, so sharing a slot would keep only the last
            // bucket's counts.
            ExecStats bucket_stats;
            Table result = exec_.run(plan, &bucket_stats, &scope);
            add_stats(shard_stats[s], bucket_stats);
            take(s, b, std::move(result));
          }
        }
      });
}

Table ShardedExecutor::run(const PlanPtr& plan, ExecStats* stats) const {
  const ShardPlanAnalysis a = analyze_shard_plan(plan, *db_);
  if (a.refs == 0) return exec_.run(plan, stats);
  if (a.refs > 1) {
    throw ExecError("sharded execution supports one partitioned-leaf "
                    "reference per plan (cross-shard repartitioning is not "
                    "implemented); plan references " +
                    std::to_string(a.refs));
  }
  if (a.spine_aggregate != nullptr) {
    return run_spine_aggregate(plan, a, stats);
  }

  // Non-aggregate spine: full plan per bucket, bucket-order concat.
  std::vector<std::optional<Table>> results(Database::kBuckets);
  std::vector<ExecStats> shard_stats(db_->shards());
  run_buckets(plan, a, shard_stats,
              [&](std::size_t, std::size_t b, Table t) {
                results[b].emplace(std::move(t));
              });

  MVD_TRACE_SPAN("exec.exchange", "gather");
  std::optional<Table> out;
  double gather_blocks = 0;
  for (const std::optional<Table>& r : results) {
    if (!r.has_value()) continue;
    if (!out.has_value()) out.emplace(r->schema(), r->blocking_factor());
    gather_blocks += r->blocks();
    for (std::size_t i = 0; i < r->row_count(); ++i) out->append_shared(*r, i);
  }
  const auto rows = static_cast<double>(out->row_count());
  record_gather(db_->exchange_log(), rows, gather_blocks);
  if (stats != nullptr) {
    stats->rows_exchanged += rows;
    stats->blocks_exchanged += gather_blocks;
  }
  merge_shard_stats(stats, std::move(shard_stats));
  return std::move(*out);
}

Table ShardedExecutor::run_spine_aggregate(const PlanPtr& plan,
                                           const ShardPlanAnalysis& a,
                                           ExecStats* stats) const {
  const AggregateOp& agg = *a.spine_aggregate;
  const PlanPtr& child = agg.children()[0];
  const Schema& is = child->output_schema();

  // Per-bucket partial: the row engine's hash aggregation, restricted to
  // this bucket's rows.
  std::vector<std::optional<GroupTable>> partials(Database::kBuckets);
  std::vector<double> partial_bf(Database::kBuckets);
  std::vector<ExecStats> shard_stats(db_->shards());
  const std::string partial_label = "partial(" + agg.label() + ")";
  run_buckets(
      child, a, shard_stats, [&](std::size_t s, std::size_t b, Table in) {
        shard_stats[s].rows_scanned += static_cast<double>(in.row_count());
        shard_stats[s].batches += 1;
        GroupTable& p = partials[b].emplace(agg, is);
        for (const Tuple& t : in.rows()) p.feed(t);
        partial_bf[b] = in.blocking_factor();
        shard_stats[s].rows_out[partial_label] +=
            static_cast<double>(p.size());
      });

  // Final merge on the calling thread, buckets in ascending order: group
  // order is first-seen across the bucket-order concatenation, partials
  // fold via Accumulator::merge — deterministic at any (shards, threads).
  MVD_TRACE_SPAN("exec.exchange", "gather");
  GroupTable groups(agg, is);
  double partial_rows = 0;
  double partial_blocks = 0;
  std::optional<double> bf;
  for (std::size_t b = 0; b < Database::kBuckets; ++b) {
    if (!partials[b].has_value()) continue;
    if (!bf.has_value()) bf = partial_bf[b];
    const std::size_t n = partials[b]->size();
    partial_rows += static_cast<double>(n);
    partial_blocks += Table::blocks_of(n, partial_bf[b]);
    groups.merge(std::move(*partials[b]));
  }
  Table merged(agg.output_schema(), bf.value_or(10.0));
  groups.emit(merged);

  record_gather(db_->exchange_log(), partial_rows, partial_blocks);
  if (stats != nullptr) {
    stats->rows_exchanged += partial_rows;
    stats->blocks_exchanged += partial_blocks;
    stats->rows_out[agg.label()] += static_cast<double>(merged.row_count());
  }
  merge_shard_stats(stats, std::move(shard_stats));

  if (a.spine_aggregate == plan.get()) return merged;

  // The aggregate was interior: run the plan's remainder with the merged
  // result standing in for the aggregate's subtree.
  RunScope scope;
  scope.given_node = a.spine_aggregate;
  scope.given = &merged;
  return exec_.run(plan, stats, &scope);
}

}  // namespace mvd
