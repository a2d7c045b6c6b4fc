#include "src/maintenance/refresh.hpp"

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/check/check.hpp"
#include "src/check/maintainability.hpp"
#include "src/common/error.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/exec/sharded.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/obs/publish.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

std::string to_string(RefreshMode mode) {
  switch (mode) {
    case RefreshMode::kRecompute:
      return "recompute";
    case RefreshMode::kIncremental:
      return "incremental";
  }
  return "?";
}

std::string to_string(RefreshPath path) {
  switch (path) {
    case RefreshPath::kSkipped:
      return "skipped";
    case RefreshPath::kApplied:
      return "applied";
    case RefreshPath::kGroupApplied:
      return "group-applied";
    case RefreshPath::kRecomputed:
      return "recomputed";
  }
  return "?";
}

std::size_t RefreshReport::count(RefreshPath path) const {
  std::size_t n = 0;
  for (const ViewRefresh& v : views) {
    if (v.path == path) ++n;
  }
  return n;
}

double RefreshReport::total_delta_rows() const {
  double total = 0;
  for (const ViewRefresh& v : views) total += v.delta_rows;
  return total;
}

double RefreshReport::total_blocks_read() const {
  double total = 0;
  for (const ViewRefresh& v : views) total += v.blocks_read;
  return total;
}

namespace {

/// Accumulated effect of one child delta on one group of an aggregate
/// view. `ins` mirrors the engine's accumulators over the insert rows
/// alone (exactly what a fresh group's row is built from); deleted-value
/// extremes drive the MIN/MAX self-maintainability check.
struct GroupDelta {
  std::int64_t dn = 0;  // insert rows − delete rows
  bool saw_delete = false;
  std::vector<double> dsum;  // per SUM spec: Σ insert values − Σ deletes
  std::vector<Accumulator> ins;
  std::vector<std::optional<Value>> del_lo;
  std::vector<std::optional<Value>> del_hi;
  Tuple group_values;
};

}  // namespace

// See refresh.hpp.
std::optional<GroupApplyResult> maintain_aggregate_view(
    const AggregateOp& op, const Table& stored,
    const DeltaTable& child_delta) {
  const std::vector<AggSpec>& specs = op.aggregates();

  const AggInputs in(op, child_delta.schema());

  // The batch-independent facts (src/check/maintainability): an AVG needs
  // a COUNT and a same-column SUM to be rebuilt exactly.
  const AggStatics statics = agg_statics(op);
  if (!statics.avg_ok) return std::nullopt;
  const std::size_t n_groups = statics.n_groups;
  const std::optional<std::size_t>& count_spec = statics.count_spec;
  const bool has_minmax = statics.has_minmax;
  // A COUNT recovers group cardinality, so deletes need one.
  const bool has_deletes = child_delta.deletes().row_count() > 0;
  if (has_deletes && !count_spec.has_value()) return std::nullopt;
  // A global aggregate stores a placeholder row for the empty input;
  // telling it apart from real data needs a COUNT, and its MIN/MAX
  // placeholders are not real extrema.
  if (n_groups == 0 && has_minmax && !count_spec.has_value()) {
    return std::nullopt;
  }

  // Fold the child delta into per-group effects, groups in first-seen
  // order.
  GroupIndex affected_index;
  std::vector<GroupDelta> affected;
  auto group_of = [&](const Tuple& t) -> GroupDelta& {
    const auto [a, inserted] =
        affected_index.try_emplace(t, in.group, affected.size());
    if (inserted) {
      GroupDelta g;
      g.dsum.resize(specs.size(), 0);
      g.ins.resize(specs.size());
      g.del_lo.resize(specs.size());
      g.del_hi.resize(specs.size());
      g.group_values.reserve(n_groups);
      for (std::size_t gi : in.group) g.group_values.push_back(t[gi]);
      affected.push_back(std::move(g));
    }
    return affected[a];
  };
  for (const Tuple& t : child_delta.inserts().rows()) {
    GroupDelta& g = group_of(t);
    g.dn += 1;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const Value v = in.value(t, j);
      if (specs[j].fn == AggFn::kSum || specs[j].fn == AggFn::kSumInt) {
        g.dsum[j] += v.as_double();
      }
      g.ins[j].feed(v);
    }
  }
  for (const Tuple& t : child_delta.deletes().rows()) {
    GroupDelta& g = group_of(t);
    g.dn -= 1;
    g.saw_delete = true;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const Value v = in.value(t, j);
      if (specs[j].fn == AggFn::kSum || specs[j].fn == AggFn::kSumInt) {
        g.dsum[j] -= v.as_double();
      }
      if (specs[j].fn == AggFn::kMin || specs[j].fn == AggFn::kMax) {
        if (!g.del_lo[j].has_value() || v.compare(*g.del_lo[j]) < 0) {
          g.del_lo[j] = v;
        }
        if (!g.del_hi[j].has_value() || v.compare(*g.del_hi[j]) > 0) {
          g.del_hi[j] = v;
        }
      }
    }
  }

  // Index stored rows by group key (group columns lead the view schema).
  std::vector<std::size_t> stored_group_idx;
  for (std::size_t i = 0; i < n_groups; ++i) stored_group_idx.push_back(i);
  GroupIndex stored_index;
  stored_index.reserve(stored.row_count());
  for (std::size_t i = 0; i < stored.row_count(); ++i) {
    stored_index.try_emplace(stored.row(i), stored_group_idx, i);
  }

  // Dynamic checks + new-row computation, before any mutation.
  const Schema& os = stored.schema();
  std::unordered_map<std::size_t, std::optional<Tuple>> replacements;
  std::vector<Tuple> fresh_rows;
  for (const GroupDelta& g : affected) {
    const std::optional<std::size_t> at =
        stored_index.find(g.group_values, stored_group_idx);
    if (!at.has_value()) {
      if (g.saw_delete) {
        throw ExecError(
            "aggregate delta deletes from a group absent in the stored view "
            "(stale or clobbered view?)");
      }
      fresh_rows.push_back(aggregate_row(specs, os, g.group_values, g.ins));
      continue;
    }
    const Tuple& old = stored.row(*at);
    std::int64_t old_count = 0;
    if (count_spec.has_value()) {
      old_count = old[n_groups + *count_spec].as_int64();
    }
    if (n_groups == 0 && has_minmax && old_count == 0) {
      return std::nullopt;  // placeholder extrema are not maintainable
    }
    const std::int64_t new_count = old_count + g.dn;
    if (count_spec.has_value() && new_count < 0) {
      throw ExecError(
          "aggregate delta drives a group count negative (stale or "
          "clobbered view?)");
    }
    // A drained group needs no extremum: it goes, or a global aggregate
    // over a now-empty input stores the engine's placeholder row.
    if (count_spec.has_value() && new_count == 0) {
      std::optional<Tuple> placeholder;
      if (n_groups == 0) {
        placeholder = aggregate_row(specs, os, {},
                                    std::vector<Accumulator>(specs.size()));
      }
      replacements.emplace(*at, std::move(placeholder));
      continue;
    }
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const std::size_t c = n_groups + j;
      if (specs[j].fn == AggFn::kMin && g.del_lo[j].has_value() &&
          g.del_lo[j]->compare(old[c]) <= 0) {
        return std::nullopt;  // stored minimum may have been deleted
      }
      if (specs[j].fn == AggFn::kMax && g.del_hi[j].has_value() &&
          g.del_hi[j]->compare(old[c]) >= 0) {
        return std::nullopt;
      }
    }
    Tuple row = old;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const std::size_t c = n_groups + j;
      switch (specs[j].fn) {
        case AggFn::kCount:
          row[c] = Value::int64(old[c].as_int64() + g.dn);
          break;
        case AggFn::kSum:
          row[c] = Value::real(old[c].as_double() + g.dsum[j]);
          break;
        case AggFn::kSumInt:
          row[c] = Value::int64(old[c].as_int64() +
                                static_cast<std::int64_t>(
                                    std::llround(g.dsum[j])));
          break;
        case AggFn::kAvg: {
          const std::size_t k = statics.avg_sum[j];
          const double sum = old[n_groups + k].as_double() + g.dsum[k];
          row[c] = Value::real(new_count > 0
                                   ? sum / static_cast<double>(new_count)
                                   : 0.0);
          break;
        }
        case AggFn::kMin:
          if (g.ins[j].min.has_value() && g.ins[j].min->compare(old[c]) < 0) {
            row[c] = *g.ins[j].min;
          }
          break;
        case AggFn::kMax:
          if (g.ins[j].max.has_value() && g.ins[j].max->compare(old[c]) > 0) {
            row[c] = *g.ins[j].max;
          }
          break;
      }
    }
    replacements.emplace(*at, std::move(row));
  }

  // Rebuild the stored view, sharing its unchanged groups' rows, and
  // collect its own delta for ancestors.
  GroupApplyResult result{Table(os, stored.blocking_factor()),
                          DeltaTable(os, stored.blocking_factor())};
  Table& next = result.next;
  next.reserve(stored.row_count() + fresh_rows.size());
  const auto append_new = [&](Tuple row) {
    next.append(std::move(row));
    result.view_delta.share_insert(next, next.row_count() - 1);
  };
  for (std::size_t i = 0; i < stored.row_count(); ++i) {
    const auto rit = replacements.find(i);
    if (rit == replacements.end()) {
      next.append_shared(stored, i);
      continue;
    }
    result.view_delta.share_delete(stored, i);
    if (rit->second.has_value()) append_new(std::move(*rit->second));
  }
  for (Tuple& row : fresh_rows) append_new(std::move(row));
  result.view_delta = std::move(result.view_delta).compacted();
  return result;
}

namespace {

void fold_stats(ExecStats* into, const ExecStats& from) {
  if (into == nullptr) return;
  into->blocks_read += from.blocks_read;
  into->rows_scanned += from.rows_scanned;
  into->batches += from.batches;
  for (const auto& [k, v] : from.rows_out) into->rows_out[k] = v;
  for (const auto& [k, v] : from.delta_rows) into->delta_rows[k] = v;
}

/// The transfer a partitioned layout pays for one view's delta (DESIGN.md
/// §15): a partitioned view's delta feeding a view stored once is
/// gathered; the delta of a view stored once that feeds a partitioned
/// view is broadcast to every shard.
void charge_exchange(Database& db, const std::string& name,
                     const DeltaTable& delta, bool feeds_global,
                     bool feeds_partitioned, ExecStats* stats) {
  auto rows = static_cast<double>(delta.row_count());
  double blocks = delta.blocks();
  if (db.is_partitioned(name)) {
    if (!feeds_global) return;
    MVD_TRACE_SPAN("exec.exchange", "gather");
    record_gather(db.exchange_log(), rows, blocks);
  } else {
    if (!feeds_partitioned) return;
    MVD_TRACE_SPAN("exec.exchange", "broadcast");
    record_broadcast(db.exchange_log(), rows, blocks, approx_delta_bytes(delta),
                     db.shards());
    rows *= static_cast<double>(db.shards());
    blocks *= static_cast<double>(db.shards());
  }
  if (stats != nullptr) {
    stats->rows_exchanged += rows;
    stats->blocks_exchanged += blocks;
  }
}

}  // namespace

RefreshReport incremental_refresh(const MvppGraph& graph,
                                  const MaterializedSet& m, Database& db,
                                  const DeltaSet& base_deltas,
                                  ExecStats* stats, ExecMode mode,
                                  std::size_t threads) {
  RefreshReport report;
  MVD_TRACE_SPAN("maintenance", "incremental-refresh");
  const auto annotate = [](TraceSpan& span, const ViewRefresh& e) {
    if (!span.active()) return;
    span.arg("view", e.view);
    span.arg("path", to_string(e.path));
    span.arg("delta_rows", e.delta_rows);
    span.arg("blocks_read", e.blocks_read);
    span.arg("stored_rows", e.stored_rows);
  };
  // Deltas pending at the frontier, one entry per changed leaf: each base
  // relation whose batch captured rows plus, as views refresh, each view
  // with a non-empty delta under its node name (the same names
  // refresh_plan gives its scan leaves). Each is compacted once, here or
  // as its view produces it; an entry whose rows all cancelled still marks
  // its leaf changed.
  DeltaSet frontier;
  for (const auto& [relation, delta] : base_deltas) {
    if (!delta.empty()) frontier.emplace(relation, delta.compacted());
  }
  for (NodeId v : m) {
    const std::string& name = graph.node(v).name;
    TraceSpan view_span("maintenance", "refresh-view");
    MaterializedSet deps = m;
    deps.erase(v);
    const PlanPtr plan = refresh_plan(graph, v, deps);
    // Static pre-flight of the refresh plan (MVD_CHECK=off|warn|error).
    check_stage_hook("refresh", plan, &db);

    ViewRefresh entry;
    entry.id = v;
    entry.view = name;
    // A fresh propagator per view: earlier iterations replaced stored
    // tables in the database, so memoized full sides must not carry over.
    // (The columnar forms scans read live with the tables, and a write
    // drops them.)
    DeltaPropagator prop(db, frontier, mode, threads);
    if (!prop.touches(plan)) {
      entry.stored_rows = static_cast<double>(db.table(name).row_count());
      if (stats != nullptr) {
        stats->rows_out[name] = entry.stored_rows;
        stats->delta_rows[name] = 0;
      }
      record_shard_rows(db, name, stats);
      annotate(view_span, entry);
      report.views.push_back(std::move(entry));
      continue;
    }
    // The stored ancestors consuming this view's delta, by placement.
    bool feeds_global = false;
    bool feeds_partitioned = false;
    for (NodeId a : graph.ancestors(v)) {
      if (!m.contains(a)) continue;
      (db.is_partitioned(graph.node(a).name) ? feeds_partitioned
                                             : feeds_global) = true;
    }

    ExecStats local;
    std::optional<DeltaTable> view_delta;  // over the stored schema
    if (plan->kind() == OpKind::kAggregate) {
      const auto& agg = static_cast<const AggregateOp&>(*plan);
      auto child_delta = prop.propagate(plan->children()[0], &local);
      if (child_delta.has_value()) {
        const DeltaTable compact = std::move(*child_delta).compacted();
        const Table& stored = db.table(name);
        if (compact.empty()) {
          view_delta.emplace(stored.schema(), stored.blocking_factor());
          entry.path = RefreshPath::kGroupApplied;
        } else if (auto applied = maintain_aggregate_view(agg, stored, compact)) {
          // Applying reads the stored groups once plus the delta.
          local.blocks_read += stored.blocks() + compact.blocks();
          local.rows_scanned +=
              static_cast<double>(stored.row_count() + compact.row_count());
          view_delta = std::move(applied->view_delta);
          db.put_table(name, std::move(applied->next));
          entry.path = RefreshPath::kGroupApplied;
          entry.delta_rows = static_cast<double>(compact.row_count());
        }
      }
    } else {
      auto delta = prop.propagate(plan, &local);
      if (delta.has_value()) {
        DeltaTable compact = std::move(*delta).compacted();
        const Table& stored = db.table(name);
        // Applying charges the delta; a batch with deletes additionally
        // rewrites the stored table.
        local.blocks_read += compact.blocks();
        if (compact.deletes().row_count() > 0) {
          local.blocks_read += stored.blocks();
          local.rows_scanned += static_cast<double>(stored.row_count());
        }
        db.apply_delta(name, compact);
        entry.path = RefreshPath::kApplied;
        entry.delta_rows = static_cast<double>(compact.row_count());
        view_delta = std::move(compact);
      }
    }

    if (!view_delta.has_value()) {
      // Fallback: recompute from the frontier (the propagator memoized any
      // full sides it already produced, so partial work is reused).
      const Table& fresh = prop.full(plan, &local);
      if (feeds_global || feeds_partitioned) {
        DeltaTable diffed = DeltaTable::diff(db.table(name), fresh);
        entry.delta_rows = static_cast<double>(diffed.row_count());
        view_delta = std::move(diffed);
      }
      db.put_table(name, Table(fresh));
      entry.path = RefreshPath::kRecomputed;
    }

    if (view_delta.has_value() && !view_delta->empty()) {
      charge_exchange(db, name, *view_delta, feeds_global, feeds_partitioned,
                      stats);
      frontier.insert_or_assign(name, std::move(*view_delta));
    }
    entry.stored_rows = static_cast<double>(db.table(name).row_count());
    entry.blocks_read = local.blocks_read;
    local.rows_out[name] = entry.stored_rows;
    local.delta_rows[name] = entry.delta_rows;
    fold_stats(stats, local);
    record_shard_rows(db, name, stats);
    annotate(view_span, entry);
    report.views.push_back(std::move(entry));
  }
  publish_refresh_report(report);
  return report;
}

}  // namespace mvd
